// comm:: cost-model unit tests: the alpha-beta link, the ring/tree closed
// forms, the size-based pick with its crossover, wire-byte accounting, and
// the Interconnect's deterministic contention-aware port schedules.
#include <gtest/gtest.h>

#include <cstddef>

#include "comm/allreduce.hpp"
#include "comm/link_model.hpp"
#include "sim/bandwidth.hpp"
#include "util/align.hpp"

namespace ca::comm {
namespace {

/// A flat 1 MiB/s (model bytes/s) link with 1ms per-message latency:
/// every cost below is hand-computable.
LinkModel flat_link(double latency = 1e-3, double bw = 1024.0 * 1024.0) {
  LinkModel link;
  link.latency_s = latency;
  link.curve = sim::BandwidthCurve{{1, bw}};
  return link;
}

TEST(LinkModel, SecondsIsLatencyPlusBytesOverBandwidth) {
  const LinkModel link = flat_link();
  EXPECT_DOUBLE_EQ(link.seconds(0), 1e-3);
  EXPECT_DOUBLE_EQ(link.seconds(util::MiB), 1e-3 + 1.0);
}

TEST(LinkModel, ContendedStreamsUseTheCurve) {
  LinkModel link;
  link.latency_s = 0.0;
  link.curve = sim::BandwidthCurve{{1, 1000.0}, {2, 400.0}};
  EXPECT_DOUBLE_EQ(link.seconds(1000, 1), 1.0);
  EXPECT_DOUBLE_EQ(link.seconds(1000, 2), 2.5);
}

TEST(LinkModel, PresetsAreWellFormed) {
  for (const LinkModel& link :
       {LinkModel::ethernet_scaled(), LinkModel::ethernet_25g_scaled()}) {
    EXPECT_GT(link.latency_s, 0.0);
    ASSERT_FALSE(link.curve.empty());
    // Fair sharing: per-stream bandwidth decreases with contention.
    EXPECT_GT(link.curve.at(1), link.curve.at(4));
  }
  EXPECT_GT(LinkModel::ethernet_scaled().curve.peak(),
            LinkModel::ethernet_25g_scaled().curve.peak());
}

TEST(AllreduceCost, RingIsTwoKMinusOneChunkSteps) {
  const LinkModel link = flat_link();
  // K=4, B=4 MiB: 6 steps of a 1 MiB chunk = 6 * (1ms + 1s).
  EXPECT_DOUBLE_EQ(ring_seconds(link, 4, 4 * util::MiB), 6 * (1e-3 + 1.0));
  // Chunk is ceil(B/K).
  EXPECT_DOUBLE_EQ(ring_seconds(link, 4, 4), 6 * link.seconds(1));
  EXPECT_DOUBLE_EQ(ring_seconds(link, 2, util::MiB), 2 * (1e-3 + 0.5));
}

TEST(AllreduceCost, TreeIsTwoLogRoundsOfWholeBuffers) {
  const LinkModel link = flat_link();
  // K=4: ceil(log2 4) = 2 reduce rounds + 2 broadcast rounds, whole B each.
  EXPECT_DOUBLE_EQ(tree_seconds(link, 4, util::MiB), 4 * (1e-3 + 1.0));
  // K=5..8 all cost ceil(log2 K) = 3 rounds per phase.
  EXPECT_DOUBLE_EQ(tree_seconds(link, 5, util::MiB),
                   tree_seconds(link, 8, util::MiB));
}

TEST(AllreduceCost, DegenerateWorkerCountsCostNothing) {
  const LinkModel link = flat_link();
  EXPECT_DOUBLE_EQ(ring_seconds(link, 1, util::MiB), 0.0);
  EXPECT_DOUBLE_EQ(tree_seconds(link, 1, util::MiB), 0.0);
  EXPECT_EQ(wire_bytes(Algorithm::kRing, 1, util::MiB), 0u);
}

TEST(AllreduceCost, PickIsLatencyVsBandwidthWithRingTies) {
  const LinkModel link = flat_link();
  // K=2: ring's 2 half-buffer steps always beat tree's 2 full-buffer
  // rounds -- latency terms are equal, bytes are halved.
  EXPECT_EQ(pick_algorithm(link, 2, 64), Algorithm::kRing);
  EXPECT_EQ(crossover_bytes(link, 2), 0u);
  // K=8: tiny buckets pay 14 ring latencies vs 6 tree latencies.
  EXPECT_EQ(pick_algorithm(link, 8, 64), Algorithm::kTree);
  EXPECT_EQ(pick_algorithm(link, 8, 16 * util::MiB), Algorithm::kRing);
  const std::size_t x = crossover_bytes(link, 8);
  ASSERT_GT(x, 0u);
  // The boundary is exact: tree at (or below) x-1, ring from x on.
  EXPECT_EQ(pick_algorithm(link, 8, x - 1), Algorithm::kTree);
  EXPECT_EQ(pick_algorithm(link, 8, x), Algorithm::kRing);
}

TEST(AllreduceCost, WireBytesMatchTheSchedules) {
  // Ring: K * 2(K-1) chunks; tree: 2(K-1) whole buffers.
  EXPECT_EQ(wire_bytes(Algorithm::kRing, 4, 4 * util::MiB),
            std::uint64_t{4} * 6 * util::MiB);
  EXPECT_EQ(wire_bytes(Algorithm::kTree, 4, 4 * util::MiB),
            std::uint64_t{6} * 4 * util::MiB);
  // Ring moves at most 2/K more than its lower bound even when B % K != 0.
  EXPECT_EQ(wire_bytes(Algorithm::kRing, 4, 10), std::uint64_t{4} * 6 * 3);
}

TEST(Interconnect, IdleScheduleMatchesTheClosedForm) {
  const LinkModel link = flat_link();
  Interconnect net(4, link);
  const auto t = net.schedule_allreduce(Algorithm::kRing, 4 * util::MiB, 2.0);
  EXPECT_DOUBLE_EQ(t.start, 2.0);
  EXPECT_DOUBLE_EQ(t.done, 2.0 + ring_seconds(link, 4, 4 * util::MiB));
  EXPECT_EQ(t.steps, 6u);
  EXPECT_EQ(t.max_streams, 1u);
}

TEST(Interconnect, TreeScheduleMatchesTheClosedForm) {
  const LinkModel link = flat_link();
  Interconnect net(8, link);
  const auto t = net.schedule_allreduce(Algorithm::kTree, util::MiB, 0.0);
  EXPECT_DOUBLE_EQ(t.done, tree_seconds(link, 8, util::MiB));
  EXPECT_EQ(t.steps, 6u);  // 3 reduce rounds + 3 broadcast rounds
}

TEST(Interconnect, OverlappingCollectivesContend) {
  LinkModel link;
  link.latency_s = 0.0;
  link.curve = sim::BandwidthCurve{{1, 1000.0}, {2, 400.0}};
  Interconnect net(2, link);
  // Alone: 2 steps of 500 bytes at 1000 B/s = 1s.
  const auto a = net.schedule_allreduce(Algorithm::kRing, 1000, 0.0);
  EXPECT_DOUBLE_EQ(a.done, 1.0);
  // Same window: b's first step sees a's occupancy and runs at the
  // 2-stream rate (500 B at 400 B/s = 1.25s); by then a has retired, so
  // b's second step runs idle (0.5s).  Contention is causal -- an earlier
  // collective is never re-timed -- and deterministic.
  const auto b = net.schedule_allreduce(Algorithm::kRing, 1000, 0.0);
  EXPECT_DOUBLE_EQ(b.done, 1.75);
  EXPECT_GE(b.max_streams, 2u);
  // Disjoint window: idle again.
  const auto c = net.schedule_allreduce(Algorithm::kRing, 1000, 100.0);
  EXPECT_DOUBLE_EQ(c.done - c.start, 1.0);
  EXPECT_EQ(c.max_streams, 1u);
}

TEST(Interconnect, SchedulesAreDeterministic) {
  const LinkModel link = LinkModel::ethernet_scaled();
  auto run = [&link] {
    Interconnect net(4, link);
    double sig = 0.0;
    for (int i = 0; i < 16; ++i) {
      const auto t = net.schedule_allreduce(
          i % 2 == 0 ? Algorithm::kRing : Algorithm::kTree,
          static_cast<std::size_t>(i + 1) * 100 * 1024, 0.25 * i);
      sig = 31.0 * sig + t.done + t.max_streams;
    }
    return sig;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace ca::comm
