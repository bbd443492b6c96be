// Flit-level discrete-event wormhole engine.
//
// Topology-agnostic: a message is a sequence of channels (its precomputed
// deterministic route) plus per-position input-buffer depths; the engine
// enforces wormhole flow control exactly (paper assumption 6):
//
//   * a message's header acquires channels hop by hop; channels are granted
//     FIFO and held exclusively until the tail flit passes;
//   * flit f starts on channel k only when (a) it has fully crossed channel
//     k-1, (b) channel k finished flit f-1, and (c) the single-flit input
//     buffer at channel k's downstream has room (its previous occupant
//     started on channel k+1);
//   * when blocked, the message stalls in place holding every acquired
//     channel (no virtual channels);
//   * channel k is released when the tail starts on channel k+1 (for
//     unit buffers; deeper buffers release on tail arrival, modelling the
//     store-and-forward concentrate/dispatch buffers).
//
// Every flit transmission is one event, so the schedule is exact up to one
// approximation, the buffer handoff: a buffer slot counts as free the
// instant its occupant *starts* onto the next channel (rule (c)), and a
// unit-buffer channel is released the instant the tail starts downstream.
// There is no credit round trip; a router that returns the slot only once
// the flit has fully left would delay each handoff by one flit time.
//
// Event queue: delay lanes. Every flit event is scheduled at
// `now + flit_time(ch)`, and there are few distinct flit times (one per
// network class and bandwidth), so events are kept in one FIFO lane per
// distinct flit time instead of one global priority queue. `now` never
// decreases, so each lane is already sorted by (time, seq), where seq is
// the global scheduling order. Popping the minimum (time, seq) over the
// lane heads therefore reproduces the total order of a (time, seq) binary
// heap exactly, at O(lanes) per event rather than O(log in-flight).
// Generations are not queued at all: they are consumed in (gen_time,
// message id) order from a cursor — the AddMessage order when that was
// sorted, else an index sorted once at the start of Run() — and win ties
// against flit events, as if they carried the smallest sequence numbers.
//
// Memory layout (the zero-allocation hot path). Message state lives in a
// structure-of-arrays arena, not in per-message containers: one flat `path_`
// buffer holds every message's channel sequence back to back, and the
// per-position running counters (`sent_`, `arrived_`, `granted_`,
// `store_forward_`, `depth_after_`) are parallel flat arrays indexed by
// `MsgMeta::base + position`. AddMessage therefore appends to six flat
// vectors (amortized O(1), no per-message heap blocks), and channel waiter
// queues are an intrusive singly-linked FIFO threaded through
// `MsgMeta::next_waiter` (a message waits on at most one channel at a
// time). Each lane is a power-of-two ring buffer. After Reset() every
// container, lanes included, keeps its capacity, so a warmed-up engine
// replays a same-shaped workload with zero heap allocations — the
// counting-allocator test (tests/sim_alloc_test.cc) enforces this.
//
// Run() is templated on the delivery callback, so the per-delivery call is
// direct (inlined at the call site) instead of going through std::function.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"

namespace coc {

class WormholeEngine {
 public:
  /// One delivered message, reported through the Run() callback.
  struct Delivery {
    std::int64_t msg;
    double gen_time;
    double deliver_time;
    std::uint64_t user_tag;
  };

  /// Upper bound on flits per message. Counters are 32-bit, so the bound is
  /// a sanity limit (a million-flit wormhole message is a config bug), not a
  /// storage ceiling like the old std::int16_t/250 one.
  static constexpr std::int32_t kMaxFlits = 1 << 20;

  /// Creates an engine over a fixed set of channels with the given per-flit
  /// transmission times.
  explicit WormholeEngine(std::vector<double> channel_flit_times);

  /// Creates an empty engine; call Reset(channel_flit_times) before use.
  WormholeEngine() = default;

  /// Re-initializes the engine for a new channel set, discarding all
  /// messages and statistics but keeping every container's capacity — the
  /// arena-reuse entry point for sweeps that run many simulations back to
  /// back.
  void Reset(const std::vector<double>& channel_flit_times);

  /// Discards all messages and statistics, keeping the channel set and all
  /// container capacity.
  void Reset();

  /// Registers a message to be injected at gen_time. `path` is the channel
  /// sequence from source to destination (`length` > 0 entries).
  /// `depth_after[k]` is the input-buffer depth (flits) at the downstream
  /// end of path[k]; 0 means unbounded. `store_forward` lists path positions
  /// whose channel the header may only request after the *whole* message has
  /// accumulated in that position's input buffer — this models the
  /// concentrator/dispatcher devices, which concentrate a message before
  /// re-injecting it (the buffer feeding a store-and-forward position must
  /// be unbounded). `user_tag` is opaque round-trip data for the caller.
  /// All messages must be added before Run(). Returns the message id.
  std::int64_t AddMessage(double gen_time, const std::int32_t* path,
                          const std::int32_t* depth_after, std::size_t length,
                          std::int32_t flits, std::uint64_t user_tag,
                          const std::int32_t* store_forward = nullptr,
                          std::size_t store_forward_count = 0);

  /// Container convenience overload (tests, small callers).
  std::int64_t AddMessage(double gen_time,
                          const std::vector<std::int32_t>& path,
                          const std::vector<std::int32_t>& depth_after,
                          int flits, std::uint64_t user_tag,
                          const std::vector<std::int32_t>& store_forward = {});

  /// Guard rails on one Run: a hard event-count budget and a cooperative
  /// deadline. Both default off (one predictable branch per event); a
  /// tripped limit throws SimBudgetError / DeadlineExceeded with the
  /// delivered-message count as partial progress. The engine keeps its
  /// consistent delivered/busy-time state, so the caller may still read
  /// partial statistics; Reset() reuses the arena as usual afterwards.
  struct RunLimits {
    std::int64_t max_events = 0;  ///< processed events; 0 = unlimited
    Deadline deadline;            ///< checked every kDeadlineStride events
  };

  /// Events between cooperative deadline probes: amortizes the clock read
  /// (or injected-check decrement) to noise while bounding overshoot.
  static constexpr std::int64_t kDeadlineStride = 1 << 13;

  /// Runs the simulation to completion (all registered messages delivered),
  /// invoking on_deliver once per message in delivery-time order. The
  /// callback is a template parameter, so the call is direct — no type
  /// erasure on the hot path.
  template <typename OnDeliver>
  void Run(OnDeliver&& on_deliver) {
    Run(static_cast<OnDeliver&&>(on_deliver), RunLimits{});
  }

  /// Same, under RunLimits (sim budgets and per-scenario deadlines).
  template <typename OnDeliver>
  void Run(OnDeliver&& on_deliver, const RunLimits& limits) {
    if (!gen_sorted_) SortGenerations();  // rare: out-of-order AddMessage
    std::size_t gen_cursor = 0;
    std::int64_t events = 0;
    for (;;) {
      const bool have_gen = gen_cursor < messages_.size();
      if (!have_gen && in_flight_ == 0) break;
      if (limits.max_events > 0 && events >= limits.max_events) {
        throw SimBudgetError("simulation exceeded its event budget (" +
                             std::to_string(limits.max_events) + " events, " +
                             Progress() + ")");
      }
      if (limits.deadline.Enabled() && (events % kDeadlineStride) == 0) {
        limits.deadline.Check("simulation", Progress());
      }
      ++events;
      const std::size_t lane = in_flight_ > 0 ? NextLane() : 0;
      if (have_gen) {
        const std::size_t g =
            gen_sorted_ ? gen_cursor : gen_order_[gen_cursor];
        const double gen_time = messages_[g].gen_time;
        if (in_flight_ == 0 || gen_time <= heads_[lane].time) {
          // Generation: the header requests the injection channel. All
          // flits of the message are available at the source from now on.
          ++gen_cursor;
          Request(static_cast<std::int64_t>(g), 0, gen_time);
          continue;
        }
      }
      const Event e = PopLane(lane);
      if (OnArrive(e)) {
        const MsgMeta& m = messages_[static_cast<std::size_t>(e.msg)];
        on_deliver(Delivery{e.msg, m.gen_time, e.time, m.user_tag});
      }
    }
  }

  /// Total time channel `ch` spent transmitting flits (for utilization).
  double ChannelBusyTime(std::int32_t ch) const {
    return busy_time_[static_cast<std::size_t>(ch)];
  }

  std::int64_t delivered_count() const { return delivered_; }
  /// Simulated time of the last delivery.
  double end_time() const { return end_time_; }

 private:
  /// Per-message constants and links; the per-position state lives in the
  /// flat arenas below, at indices [base, base + len).
  struct MsgMeta {
    double gen_time;
    std::uint64_t user_tag;
    std::int64_t base;         // offset into the per-position arenas
    std::int64_t next_waiter;  // intrusive FIFO link while queued, else -1
    std::int32_t len;          // path length
    std::int32_t flits;
    std::int32_t header_pos;   // position being requested/acquired
  };

  struct ChannelState {
    std::int64_t owner = -1;
    std::int64_t waiter_head = -1;  // intrusive FIFO through next_waiter
    std::int64_t waiter_tail = -1;
  };

  /// One flit fully crossing the channel at path position `pos`.
  struct Event {
    double time;
    std::uint64_t seq;  // global scheduling order; breaks cross-lane ties
    std::int64_t msg;
    std::int32_t pos;
    std::int32_t flit;
  };

  /// FIFO of the events scheduled on channels of one flit time, as a ring
  /// buffer whose capacity is zero or a power of two.
  struct Lane {
    std::vector<Event> ring;
    std::size_t head = 0;
    std::size_t size = 0;
  };

  /// (time, seq) of a lane's front event; an empty lane holds kEmptyHead,
  /// which every real event precedes.
  struct LaneHead {
    double time;
    std::uint64_t seq;
  };
  static constexpr LaneHead kEmptyHead = {
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<std::uint64_t>::max()};

  /// Lane holding the minimum (time, seq) event; requires in_flight_ > 0.
  std::size_t NextLane() const {
    std::size_t best = 0;
    for (std::size_t l = 1; l < heads_.size(); ++l) {
      const LaneHead& a = heads_[l];
      const LaneHead& b = heads_[best];
      if (a.time < b.time || (a.time == b.time && a.seq < b.seq)) best = l;
    }
    return best;
  }

  void PushLane(std::size_t lane, const Event& e) {
    Lane& q = lanes_[lane];
    if (q.size == q.ring.size()) GrowLane(q);
    q.ring[(q.head + q.size) & (q.ring.size() - 1)] = e;
    if (q.size++ == 0) heads_[lane] = LaneHead{e.time, e.seq};
    ++in_flight_;
  }

  Event PopLane(std::size_t lane) {
    Lane& q = lanes_[lane];
    const Event e = q.ring[q.head];
    q.head = (q.head + 1) & (q.ring.size() - 1);
    --in_flight_;
    if (--q.size == 0) {
      heads_[lane] = kEmptyHead;
    } else {
      const Event& next = q.ring[q.head];
      heads_[lane] = LaneHead{next.time, next.seq};
    }
    return e;
  }

  /// Partial-progress note for RunLimits failures — deterministic for a
  /// deterministic schedule, so injected budget/deadline errors are
  /// bit-identical across runs and thread counts.
  std::string Progress() const {
    return std::to_string(delivered_) + " of " +
           std::to_string(messages_.size()) + " messages delivered";
  }

  /// Groups channels into lanes by exact flit time.
  void AssignLanes();
  static void GrowLane(Lane& q);
  /// Fills gen_order_ with message ids sorted by (gen_time, id).
  void SortGenerations();
  void Request(std::int64_t msg, std::int32_t pos, double now);
  void ReleaseChannel(std::int32_t ch, double now);
  /// Attempts to start the next flit of `msg` on path position `pos`;
  /// cascades upstream when a buffer slot frees.
  void TrySend(std::int64_t msg, std::int32_t pos, double now);
  /// Processes one flit arrival; returns true when it completed a delivery
  /// (the caller then invokes the delivery callback).
  bool OnArrive(const Event& e);

  std::vector<double> flit_time_;
  std::vector<std::int32_t> lane_of_;  // channel -> lane
  std::vector<double> lane_time_;      // lane -> its flit time
  std::vector<double> busy_time_;
  std::vector<ChannelState> channels_;
  std::vector<MsgMeta> messages_;
  // Structure-of-arrays arenas, indexed by MsgMeta::base + position.
  std::vector<std::int32_t> path_;
  std::vector<std::int32_t> depth_after_;
  std::vector<std::int32_t> sent_;          // flits started per position
  std::vector<std::int32_t> arrived_;       // flits arrived per position
  std::vector<std::uint8_t> granted_;       // channel ownership per position
  std::vector<std::uint8_t> store_forward_; // request only after full arrival
  // lanes_ may hold more lanes than the current channel set uses (idle and
  // empty), so ring capacity survives a Reset() onto another channel set.
  std::vector<Lane> lanes_;
  std::vector<LaneHead> heads_;  // one per lane in use
  std::vector<std::int64_t> gen_order_;  // used only when !gen_sorted_
  std::int64_t in_flight_ = 0;           // events queued over all lanes
  std::uint64_t seq_ = 0;
  std::int64_t delivered_ = 0;
  double end_time_ = 0;
  bool gen_sorted_ = true;  // AddMessage calls came in gen_time order
};

}  // namespace coc
