// Exact-schedule tests for the flit-level wormhole engine: hand-computed
// pipelines, contention, FIFO fairness, release semantics, conservation,
// determinism and the tie order of simultaneous events.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "gtest/gtest.h"
#include "sim/wormhole_engine.h"

namespace coc {
namespace {

using Delivery = WormholeEngine::Delivery;

std::vector<Delivery> RunAll(WormholeEngine& e) {
  std::vector<Delivery> out;
  e.Run([&out](const Delivery& d) { out.push_back(d); });
  return out;
}

TEST(WormholeEngine, SingleChannelMessageTakesMFlitTimes) {
  WormholeEngine e({2.0});
  e.AddMessage(0.0, {0}, {1}, /*flits=*/5, 0);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 5 * 2.0);
}

TEST(WormholeEngine, HomogeneousPipelineClassicFormula) {
  // L channels of per-flit time t: latency = (L + M - 1) t.
  for (int links = 1; links <= 5; ++links) {
    std::vector<double> times(static_cast<std::size_t>(links), 1.5);
    WormholeEngine e(times);
    std::vector<std::int32_t> path, depth;
    for (int i = 0; i < links; ++i) {
      path.push_back(i);
      depth.push_back(1);
    }
    e.AddMessage(0.0, path, depth, /*flits=*/8, 0);
    const auto d = RunAll(e);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_DOUBLE_EQ(d[0].deliver_time, (links + 8 - 1) * 1.5) << links;
  }
}

TEST(WormholeEngine, BottleneckDominatesDrainRate) {
  // Channels 1.0 then 2.0: hand recurrence gives delivery 2M + 1.
  WormholeEngine e({1.0, 2.0});
  e.AddMessage(0.0, {0, 1}, {1, 1}, /*flits=*/4, 0);
  const auto d = RunAll(e);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 2 * 4 + 1.0);
}

TEST(WormholeEngine, FastThenSlowEqualsSlowThenFastForSingleMessage) {
  WormholeEngine a({1.0, 3.0});
  a.AddMessage(0.0, {0, 1}, {1, 1}, 6, 0);
  const double t1 = RunAll(a)[0].deliver_time;
  WormholeEngine b({3.0, 1.0});
  b.AddMessage(0.0, {0, 1}, {1, 1}, 6, 0);
  const double t2 = RunAll(b)[0].deliver_time;
  // Drain is bottleneck-limited either way; header sees the same sum.
  EXPECT_DOUBLE_EQ(t1, 3 * 6 + 1.0);
  EXPECT_DOUBLE_EQ(t2, t1);
}

TEST(WormholeEngine, FifoContentionOnSharedChannel) {
  // Two 2-flit messages on one unit channel. A: [0,2]. B arrives at 0.5,
  // granted at A's release (2.0), delivered at 4.0.
  WormholeEngine e({1.0});
  e.AddMessage(0.0, {0}, {1}, 2, 0);
  e.AddMessage(0.5, {0}, {1}, 2, 1);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 2.0);
  EXPECT_DOUBLE_EQ(d[1].deliver_time, 4.0);
  EXPECT_EQ(d[1].user_tag, 1u);
}

TEST(WormholeEngine, GrantOrderIsFifoNotShortestJob) {
  // Three messages request the same channel while busy; they are served in
  // request order regardless of length.
  WormholeEngine e({1.0});
  e.AddMessage(0.0, {0}, {1}, 10, 0);  // holds [0, 10)
  e.AddMessage(1.0, {0}, {1}, 1, 1);
  e.AddMessage(2.0, {0}, {1}, 5, 2);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].user_tag, 0u);
  EXPECT_EQ(d[1].user_tag, 1u);
  EXPECT_DOUBLE_EQ(d[1].deliver_time, 11.0);
  EXPECT_EQ(d[2].user_tag, 2u);
  EXPECT_DOUBLE_EQ(d[2].deliver_time, 16.0);
}

TEST(WormholeEngine, UpstreamChannelHeldUntilTailHandsOff) {
  // Msg A takes channels {0, 1}; msg B needs channel 0 only. With unit
  // buffers channel 0 frees when A's tail starts on channel 1.
  // A (M=3, t=1 both): tail starts on ch1 at t=3 => B granted at 3,
  // delivered 3 + 3 = 6.
  WormholeEngine e({1.0, 1.0});
  e.AddMessage(0.0, {0, 1}, {1, 1}, 3, 0);
  e.AddMessage(0.0, {0}, {1}, 3, 1);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 4.0);  // (2 + 3 - 1) * 1
  EXPECT_EQ(d[1].user_tag, 1u);
  EXPECT_DOUBLE_EQ(d[1].deliver_time, 6.0);
}

TEST(WormholeEngine, BlockedMessageStallsHoldingChannels) {
  // Msg A occupies channel 2 for a long time. Msg B's path is {0, 1, 2}:
  // its header blocks waiting for 2 while holding 0 and 1, so msg C
  // (path {0}) must wait for B's tail to clear channel 0.
  WormholeEngine e({1.0, 1.0, 1.0});
  e.AddMessage(0.0, {2}, {1}, 20, 0);        // holds ch2 during [0, 20)
  e.AddMessage(1.0, {0, 1, 2}, {1, 1, 1}, 4, 1);
  e.AddMessage(2.0, {0}, {1}, 1, 2);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 3u);
  auto by_tag = [&d](std::uint64_t tag) {
    for (const auto& del : d) {
      if (del.user_tag == tag) return del.deliver_time;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(by_tag(0), 20.0);
  // B: header crosses 0,1 by t=3, waits for ch2 until 20, then the 4-flit
  // pipeline drains: delivery at 24.
  EXPECT_DOUBLE_EQ(by_tag(1), 24.0);
  // C had to wait for B's tail to hand off channel 0, which happens at 22
  // as B's pipeline drains; C then needs one more flit time.
  EXPECT_DOUBLE_EQ(by_tag(2), 23.0);
}

TEST(WormholeEngine, DeepBufferDecouplesUpstream) {
  // Same scenario but channel 1's downstream buffer (before ch2) is
  // unbounded: B's flits accumulate there, channels 0 and 1 release early,
  // and C proceeds without waiting for ch2.
  WormholeEngine e({1.0, 1.0, 1.0});
  e.AddMessage(0.0, {2}, {1}, 20, 0);
  e.AddMessage(1.0, {0, 1, 2}, {1, 0, 1}, 4, 1);
  e.AddMessage(2.0, {0}, {1}, 1, 2);
  const auto d = RunAll(e);
  ASSERT_EQ(d.size(), 3u);
  // C is delivered long before A finishes.
  EXPECT_EQ(d[0].user_tag, 2u);
  EXPECT_LT(d[0].deliver_time, 10.0);
}

TEST(WormholeEngine, SingleMessageLatencyFormulaHeterogeneousPaths) {
  // For a lone message the exact schedule collapses to
  //   delivery = sum_j t_j + (M - 1) * max_j t_j
  // regardless of where the bottleneck sits.
  struct Case {
    std::vector<double> times;
    int flits;
  };
  const Case cases[] = {
      {{1, 3, 1}, 4}, {{3, 1, 1}, 4},       {{1, 1, 3}, 4},
      {{2, 2, 2}, 7}, {{0.5, 4, 2, 1}, 10}, {{5}, 3},
  };
  for (const auto& c : cases) {
    WormholeEngine e(c.times);
    std::vector<std::int32_t> path, depth;
    double sum = 0, mx = 0;
    for (std::size_t i = 0; i < c.times.size(); ++i) {
      path.push_back(static_cast<std::int32_t>(i));
      depth.push_back(1);
      sum += c.times[i];
      mx = std::max(mx, c.times[i]);
    }
    e.AddMessage(0.0, path, depth, c.flits, 0);
    std::vector<Delivery> d;
    e.Run([&d](const Delivery& del) { d.push_back(del); });
    EXPECT_NEAR(d[0].deliver_time, sum + (c.flits - 1) * mx, 1e-9)
        << "times.size=" << c.times.size() << " M=" << c.flits;
  }
}

TEST(WormholeEngine, LongMessageBeyondOldInt16Ceiling) {
  // The seed engine capped messages at 250 flits (int16 counters); the
  // arena engine's counters are 32-bit, bounded only by kMaxFlits.
  WormholeEngine e({1.0, 1.0});
  e.AddMessage(0.0, {0, 1}, {1, 1}, 4096, 0);
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  EXPECT_DOUBLE_EQ(d[0].deliver_time, (2 + 4096 - 1) * 1.0);
}

TEST(WormholeEngine, BackToBackMessagesOnPipelineThroughput) {
  // K messages through the same 2-channel pipeline: after the first
  // delivery at (2 + M - 1) t, each further message adds M t (the channel
  // is released when the predecessor's tail starts on channel 1, i.e.
  // every M t).
  WormholeEngine e({1.0, 1.0});
  const int kMessages = 5, kFlits = 4;
  for (int i = 0; i < kMessages; ++i) {
    e.AddMessage(0.0, {0, 1}, {1, 1}, kFlits, static_cast<std::uint64_t>(i));
  }
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  ASSERT_EQ(d.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i)].deliver_time,
                     (2 + kFlits - 1) + i * kFlits)
        << i;
  }
}

TEST(WormholeEngine, SingleFlitMessage) {
  WormholeEngine e({1.0, 2.0, 1.0});
  e.AddMessage(0.0, {0, 1, 2}, {1, 1, 1}, 1, 0);
  const auto d = RunAll(e);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 4.0);  // pure store-and-forward of 1 flit
}

TEST(WormholeEngine, BusyTimeAccounting) {
  WormholeEngine e({2.0, 1.0});
  e.AddMessage(0.0, {0, 1}, {1, 1}, 5, 0);
  RunAll(e);
  EXPECT_DOUBLE_EQ(e.ChannelBusyTime(0), 5 * 2.0);
  EXPECT_DOUBLE_EQ(e.ChannelBusyTime(1), 5 * 1.0);
}

TEST(WormholeEngine, ConservationManyRandomMessages) {
  WormholeEngine e(std::vector<double>(16, 1.0));
  std::uint64_t state = 12345;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  const int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    // Random strictly-increasing channel sequences: like up*/down* routes,
    // they respect a global resource order, so the workload is
    // deadlock-free by construction (arbitrary random paths are not).
    std::vector<std::int32_t> path;
    std::int32_t c = static_cast<std::int32_t>(next() % 8);
    for (int j = 0; j < 3; ++j) {
      path.push_back(c);
      c += 1 + static_cast<std::int32_t>(next() % 3);
    }
    e.AddMessage(static_cast<double>(next() % 1000) * 0.1, path, {1, 1, 1},
                 1 + static_cast<int>(next() % 8), i);
  }
  const auto d = RunAll(e);
  EXPECT_EQ(d.size(), static_cast<std::size_t>(kCount));
  EXPECT_EQ(e.delivered_count(), kCount);
  // Latency is always positive and finite.
  for (const auto& del : d) {
    EXPECT_GT(del.deliver_time, del.gen_time);
    EXPECT_TRUE(std::isfinite(del.deliver_time));
  }
}

TEST(WormholeEngine, DeterministicReplay) {
  auto run = [] {
    WormholeEngine e({1.0, 1.5, 2.0, 1.0});
    for (int i = 0; i < 50; ++i) {
      e.AddMessage(0.3 * i, {i % 4, (i + 1) % 4}, {1, 1}, 4, i);
    }
    double sum = 0;
    e.Run([&sum](const Delivery& d) { sum += d.deliver_time; });
    return sum;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(WormholeEngine, StoreForwardSerializesFully) {
  // sf at position 1 with an unbounded feeding buffer: the header may only
  // request channel 1 after the tail arrived, so delivery = M t0 + M t1.
  WormholeEngine e({1.0, 2.0});
  e.AddMessage(0.0, {0, 1}, {0, 1}, 4, 0, {1});
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 4 * 1.0 + 4 * 2.0);
}

TEST(WormholeEngine, StoreForwardReleasesFeedingChannelEarly) {
  // With sf + deep buffer, the feeding channel frees at tail arrival even
  // though the downstream channel is busy with another message.
  WormholeEngine e({1.0, 5.0});
  e.AddMessage(0.0, {1}, {1}, 10, 0);            // occupies ch1 in [0, 50)
  e.AddMessage(0.0, {0, 1}, {0, 1}, 4, 1, {1});  // sf into ch1
  e.AddMessage(0.0, {0}, {1}, 2, 2);             // wants ch0 after msg 1
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  ASSERT_EQ(d.size(), 3u);
  // Msg 2 proceeds right after msg 1's tail arrives into the sf buffer
  // (t=4), long before ch1 frees at t=50.
  EXPECT_EQ(d[0].user_tag, 2u);
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 6.0);
}

TEST(WormholeEngine, StoreForwardSingleFlitMessage) {
  WormholeEngine e({1.0, 2.0});
  e.AddMessage(0.0, {0, 1}, {0, 1}, 1, 0, {1});
  std::vector<Delivery> d;
  e.Run([&d](const Delivery& del) { d.push_back(del); });
  EXPECT_DOUBLE_EQ(d[0].deliver_time, 3.0);
}

TEST(WormholeEngine, StoreForwardValidation) {
  WormholeEngine e({1.0, 1.0});
  // Position 0 cannot be store-and-forward (no feeding buffer).
  EXPECT_THROW(e.AddMessage(0, {0, 1}, {0, 1}, 2, 0, {0}),
               std::invalid_argument);
  // The feeding buffer must be unbounded.
  EXPECT_THROW(e.AddMessage(0, {0, 1}, {1, 1}, 2, 0, {1}),
               std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {0, 1}, {0, 1}, 2, 0, {2}),
               std::invalid_argument);
}

TEST(WormholeEngine, RejectsNonPositiveFlitTimes) {
  EXPECT_THROW(WormholeEngine({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(WormholeEngine({-2.0}), std::invalid_argument);
}

TEST(WormholeEngine, RejectsMalformedMessages) {
  WormholeEngine e({1.0});
  EXPECT_THROW(e.AddMessage(0, {}, {}, 4, 0), std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {0}, {1, 1}, 4, 0), std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {0}, {1}, 0, 0), std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {0}, {1}, WormholeEngine::kMaxFlits + 1, 0),
               std::invalid_argument);
  EXPECT_THROW(e.AddMessage(0, {5}, {1}, 4, 0), std::invalid_argument);
}


// --- Tie order --------------------------------------------------------------
//
// The engine processes events in (time, sequence) order: among events at the
// same simulated time, generations come first (by gen time, then message
// id), then flit events in the order they were scheduled. The preset flit
// times almost never produce exact ties, so the goldens below use dyadic
// flit times 0.25 * (1 + ch % 5) and gen times on a 0.25 grid: every sum is
// exact in binary floating point and equal event times are the norm. A
// wrong tie-break (say, the lowest flit time winning equal times) changes
// grant order on contended channels and with it the delivery sequence.

/// 64-bit FNV-1a over the delivery sequence: (message id, delivery-time
/// bits) per delivery, in callback order.
std::uint64_t DeliveryDigest(WormholeEngine& e) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  std::int64_t delivered = 0;
  e.Run([&](const Delivery& d) {
    mix(static_cast<std::uint64_t>(d.msg));
    mix(std::bit_cast<std::uint64_t>(d.deliver_time));
    ++delivered;
  });
  EXPECT_EQ(delivered, e.delivered_count());
  return h;
}

struct TieMessage {
  double gen_time;
  std::vector<std::int32_t> path, depth, store_forward;
  int flits;
};

/// `count` messages over 24 channels with gen times on a 0.25 grid (gaps of
/// 0, 0.25, 0.5 or 0.75, so generations tie too). Paths ascend through the
/// channel ids, which keeps the workload deadlock-free. `depth_mode` 0, 1
/// or 2 gives every buffer that depth (0 = unbounded); 3 draws each from
/// {0, 1, 2}. A position fed by an unbounded buffer is store-and-forward
/// with probability 1/2.
std::vector<TieMessage> TieWorkload(int count, int depth_mode) {
  std::uint64_t state = 2024;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  std::vector<TieMessage> out;
  double gen = 0;
  for (int i = 0; i < count; ++i) {
    TieMessage m;
    gen += 0.25 * static_cast<double>(next() % 4);
    m.gen_time = gen;
    m.flits = 1 + static_cast<int>(next() % 4);
    for (auto c = static_cast<std::int32_t>(next() % 12); c < 24;
         c += 1 + static_cast<std::int32_t>(next() % 5)) {
      const auto pos = static_cast<std::int32_t>(m.path.size());
      if (pos > 0 && m.depth.back() == 0 && next() % 2 == 0) {
        m.store_forward.push_back(pos);
      }
      m.path.push_back(c);
      m.depth.push_back(depth_mode < 3 ? depth_mode
                                       : static_cast<std::int32_t>(next() % 3));
      if (m.path.size() == 4) break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

/// Runs the tie workload on a fresh engine. `shuffled` adds the messages in
/// a seeded permutation of gen-time order, which takes the engine's
/// out-of-order generation path.
std::uint64_t TieDigest(int depth_mode, bool shuffled) {
  std::vector<double> times;
  for (int ch = 0; ch < 24; ++ch) times.push_back(0.25 * (1 + ch % 5));
  const auto msgs = TieWorkload(300, depth_mode);
  std::vector<std::size_t> order(msgs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (shuffled) {
    std::uint64_t state = 7;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(order[i], order[(state >> 33) % (i + 1)]);
    }
  }
  WormholeEngine e(times);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const TieMessage& m = msgs[order[k]];
    e.AddMessage(m.gen_time, m.path, m.depth, m.flits, order[k],
                 m.store_forward);
  }
  return DeliveryDigest(e);
}

TEST(WormholeEngine, TieOrderGolden) {
  // The golden's premise: simultaneous generations and store-and-forward
  // positions are common in the workload.
  const auto mixed = TieWorkload(300, 3);
  int tied_gens = 0, sf = 0;
  for (std::size_t i = 1; i < mixed.size(); ++i) {
    tied_gens += mixed[i].gen_time == mixed[i - 1].gen_time;
  }
  for (const auto& m : mixed) sf += static_cast<int>(m.store_forward.size());
  EXPECT_GT(tied_gens, 30);
  EXPECT_GT(sf, 10);

  // Recorded from the binary-heap engine, whose (time, seq) order defines
  // the schedule; any event core must reproduce it exactly.
  // Index: [depth_mode][shuffled].
  const std::uint64_t kGolden[4][2] = {
      {0x08fa3468dfdbb7a5ULL, 0xc3806cab05db8f20ULL},
      {0x9fd97e76ddc2173aULL, 0xf2e7768168dd4349ULL},
      {0x8bc7fc49b9537e40ULL, 0x4f254ffc0f8b3f35ULL},
      {0x318e931bffcbd465ULL, 0xd2d2e98c629f430dULL},
  };
  for (int mode = 0; mode < 4; ++mode) {
    for (int shuffled = 0; shuffled < 2; ++shuffled) {
      const std::uint64_t got = TieDigest(mode, shuffled != 0);
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%016llxULL",
                    static_cast<unsigned long long>(got));
      EXPECT_EQ(got, kGolden[mode][shuffled])
          << "depth_mode=" << mode << " shuffled=" << shuffled
          << " digest=" << hex;
    }
  }
}

TEST(WormholeEngine, ShuffledAddOrderMatchesSortedByGenThenId) {
  // Out-of-order AddMessage must schedule generations by (gen time,
  // message id): re-adding the same messages in that order gives the
  // identical delivery sequence.
  WormholeEngine a({1.0, 0.5, 0.75});
  WormholeEngine b({1.0, 0.5, 0.75});
  const double gens[] = {2.0, 0.0, 2.0, 1.0, 0.0};
  for (int i = 0; i < 5; ++i) {
    a.AddMessage(gens[i], {i % 3, 2}, {1, 1}, 2, i);
  }
  std::vector<int> ids = {0, 1, 2, 3, 4};
  std::stable_sort(ids.begin(), ids.end(),
                   [&](int x, int y) { return gens[x] < gens[y]; });
  for (int i : ids) b.AddMessage(gens[i], {i % 3, 2}, {1, 1}, 2, i);
  std::vector<std::pair<std::uint64_t, double>> da, db;
  a.Run([&](const Delivery& d) { da.emplace_back(d.user_tag, d.deliver_time); });
  b.Run([&](const Delivery& d) { db.emplace_back(d.user_tag, d.deliver_time); });
  EXPECT_EQ(da, db);
}

}  // namespace
}  // namespace coc
