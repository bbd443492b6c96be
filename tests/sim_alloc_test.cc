// Counting-allocator proof of the zero-allocation hot path: this binary
// replaces global operator new/delete with counting versions and asserts
// that a warmed-up engine (and the whole CocSystemSim::Run streaming path
// with a reused SimScratch) performs **zero** heap allocations per message
// in steady state — every container only ever reuses capacity retained
// across Reset().
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "sim/coc_system_sim.h"
#include "sim/wormhole_engine.h"
#include "system/presets.h"

namespace {

std::atomic<long> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coc {
namespace {

/// Deterministic engine workload: `count` pipelined messages over 8
/// channels, added in gen-time order through the span-based AddMessage (no
/// temporary vectors). Returns the delivery-time sum as a checksum.
double LoadAndRun(WormholeEngine& engine, int count) {
  std::uint64_t state = 99;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < count; ++i) {
    std::int32_t path[3];
    std::int32_t depth[3] = {1, 1, 1};
    std::int32_t c = static_cast<std::int32_t>(next() % 4);
    for (int j = 0; j < 3; ++j) {
      path[j] = c;
      c += 1 + static_cast<std::int32_t>(next() % 2);
    }
    engine.AddMessage(0.25 * i, path, depth, 3,
                      1 + static_cast<std::int32_t>(next() % 6),
                      static_cast<std::uint64_t>(i));
  }
  double sum = 0;
  engine.Run([&sum](const WormholeEngine::Delivery& d) {
    sum += d.deliver_time;
  });
  return sum;
}

TEST(ZeroAlloc, WarmedUpEngineDoesNotAllocate) {
  const std::vector<double> times(8, 1.0);
  WormholeEngine engine(times);
  const double checksum = LoadAndRun(engine, 500);  // grows the arena

  engine.Reset(times);
  const long before = g_alloc_count.load(std::memory_order_relaxed);
  const double replay = LoadAndRun(engine, 500);
  const long allocs = g_alloc_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(allocs, 0) << "steady-state injection path must not allocate";
  EXPECT_EQ(replay, checksum) << "Reset() must fully restore initial state";
}

TEST(ZeroAlloc, WarmedUpMultiLaneEngineDoesNotAllocate) {
  // Four distinct flit times, so the event queue keeps several delay lanes
  // busy at once; every lane must reuse its retained capacity.
  const std::vector<double> times = {1.0, 0.5, 0.75, 1.25,
                                     1.0, 0.5, 0.75, 1.25};
  WormholeEngine engine(times);
  const double checksum = LoadAndRun(engine, 500);

  engine.Reset(times);
  const long before = g_alloc_count.load(std::memory_order_relaxed);
  const double replay = LoadAndRun(engine, 500);
  const long allocs = g_alloc_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(allocs, 0) << "steady-state injection path must not allocate";
  EXPECT_EQ(replay, checksum) << "Reset() must fully restore initial state";
}

/// The result fields a reused scratch must reproduce bit for bit.
void ExpectSameResult(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.latency.Mean(), b.latency.Mean());
  EXPECT_EQ(a.latency.Variance(), b.latency.Variance());
  EXPECT_EQ(a.delivery_times, b.delivery_times);
  EXPECT_EQ(a.icn1_util.busy_time, b.icn1_util.busy_time);
  EXPECT_EQ(a.ecn1_util.busy_time, b.ecn1_util.busy_time);
  EXPECT_EQ(a.icn2_util.busy_time, b.icn2_util.busy_time);
}

TEST(ZeroAlloc, ScratchReusedAcrossSystemsStaysAllocationFree) {
  // A batch worker carries one SimScratch from scenario to scenario, so the
  // engine is Reset() onto different channel sets (here preset tiny, then
  // preset:small:16:64, then each again). Once both shapes have been seen,
  // a run allocates only its result's two vectors (per_cluster and the
  // reserved delivery_times), and matches a fresh scratch bit for bit.
  const auto tiny = MakeTinySystem(MessageFormat{32, 256});
  const auto small = MakeSmallSystem(MessageFormat{16, 64});
  const CocSystemSim tiny_sim(tiny);
  const CocSystemSim small_sim(small);
  SimConfig cfg;
  cfg.lambda_g = 2e-4;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 1000;
  cfg.drain_messages = 200;
  cfg.record_deliveries = true;

  SimScratch scratch;
  tiny_sim.Run(cfg, scratch);  // warm-up: both shapes once
  small_sim.Run(cfg, scratch);

  for (const CocSystemSim* sim : {&tiny_sim, &small_sim}) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const SimResult reused = sim->Run(cfg, scratch);
    const long allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocs, 2) << "only the result vectors may allocate";
    EXPECT_GT(reused.delivered, 0);
    ExpectSameResult(reused, sim->Run(cfg));
  }
}

TEST(ZeroAlloc, SimRunAllocationsIndependentOfMessageCount) {
  // The full streaming path: traffic generation, routing (with the ICN2
  // skeleton cache), AddMessage, engine run. A warmed-up SimScratch makes
  // the per-run allocation count a small constant (result bookkeeping),
  // independent of how many messages flow — i.e. zero per message.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimScratch scratch;

  SimConfig large;
  large.lambda_g = 2e-4;
  large.warmup_messages = 200;
  large.measured_messages = 2000;
  large.drain_messages = 200;
  SimConfig small = large;
  small.measured_messages = 600;

  sim.Run(large, scratch);  // warm every buffer to the larger shape

  auto count_allocs = [&](const SimConfig& cfg) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.Run(cfg, scratch);
    EXPECT_GT(r.delivered, 0);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };

  const long small_allocs = count_allocs(small);
  const long large_allocs = count_allocs(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "per-run allocations must not scale with message count";
  // The constant is result bookkeeping (per-cluster stats vector), not the
  // hot path; keep it honest and tiny.
  EXPECT_LE(large_allocs, 8);
}

TEST(ZeroAlloc, MmppArrivalsStayAllocationFree) {
  // The bursty generator is a two-state gap sampler over the same Rng — no
  // state beyond two doubles and a bool, so the streaming path's
  // per-message allocation count stays zero.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimScratch scratch;

  SimConfig large;
  large.lambda_g = 2e-4;
  large.warmup_messages = 200;
  large.measured_messages = 2000;
  large.drain_messages = 200;
  large.workload.arrival = ArrivalProcess::Mmpp(4.0, 8.0);
  SimConfig small = large;
  small.measured_messages = 600;

  sim.Run(large, scratch);  // warm every buffer to the larger shape

  auto count_allocs = [&](const SimConfig& cfg) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.Run(cfg, scratch);
    EXPECT_GT(r.delivered, 0);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };

  const long small_allocs = count_allocs(small);
  const long large_allocs = count_allocs(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "per-run allocations must not scale with message count";
  EXPECT_LE(large_allocs, 8);
}

TEST(ZeroAlloc, TraceReplayStaysAllocationFree) {
  // Trace replay reads the shared immutable TraceData (loaded once, outside
  // the measured window) and pushes into the reused traffic buffer — no
  // per-message heap traffic, independent of how many cycles the replay
  // wraps through.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  {
    std::ofstream out("/tmp/coc_alloc_replay.trace");
    for (int k = 0; k < 32; ++k) {
      out << (k * 50.0) << ' ' << (k % 16) << ' ' << (16 + k % 8) << " 8\n";
    }
  }
  const CocSystemSim sim(sys);
  SimScratch scratch;

  SimConfig large;
  large.lambda_g = 2e-4;
  large.warmup_messages = 200;
  large.measured_messages = 2000;
  large.drain_messages = 200;
  large.workload.arrival =
      ArrivalProcess::TraceReplay("/tmp/coc_alloc_replay.trace");
  SimConfig small = large;
  small.measured_messages = 600;

  sim.Run(large, scratch);  // warm every buffer to the larger shape

  auto count_allocs = [&](const SimConfig& cfg) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.Run(cfg, scratch);
    EXPECT_GT(r.delivered, 0);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };

  const long small_allocs = count_allocs(small);
  const long large_allocs = count_allocs(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "per-run allocations must not scale with message count";
  EXPECT_LE(large_allocs, 8);
}

TEST(ZeroAlloc, DragonflyRoutingStaysAllocationFree) {
  // The dragonfly oracle (including the Valiant clusters' entropy-driven
  // intermediate-group selection) must preserve the zero-alloc streaming
  // path: it only appends into the reused RoutedPath buffers.
  const auto sys = MakeDragonflySystem(MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimScratch scratch;

  SimConfig large;
  large.lambda_g = 2e-4;
  large.warmup_messages = 200;
  large.measured_messages = 2000;
  large.drain_messages = 200;
  large.ascent = SimConfig::AscentPolicy::kRandomized;  // live Valiant draws
  SimConfig small = large;
  small.measured_messages = 600;

  sim.Run(large, scratch);  // warm every buffer to the larger shape

  auto count_allocs = [&](const SimConfig& cfg) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.Run(cfg, scratch);
    EXPECT_GT(r.delivered, 0);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };

  const long small_allocs = count_allocs(small);
  const long large_allocs = count_allocs(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "per-run allocations must not scale with message count";
  EXPECT_LE(large_allocs, 8);
}

}  // namespace
}  // namespace coc
