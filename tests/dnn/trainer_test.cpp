#include <cmath>
#include "dnn/trainer.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "dnn/models.hpp"
#include "util/align.hpp"

namespace ca::dnn {
namespace {

HarnessConfig sim_cfg() {
  HarnessConfig c;
  c.mode = Mode::kCaLM;
  c.dram_bytes = 4 * util::MiB;
  c.nvram_bytes = 32 * util::MiB;
  c.backend = Backend::kSim;
  return c;
}

TEST(Trainer, IterationProducesMetrics) {
  Harness h(sim_cfg());
  auto model = build_model(h.engine(), ModelSpec::vgg_tiny());
  Trainer trainer(h, *model);
  const auto m = trainer.run_iteration();
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_GT(m.compute_seconds, 0.0);
  EXPECT_GT(m.peak_resident_bytes, 0u);
  EXPECT_GT(m.dram.total(), 0u);
  EXPECT_EQ(trainer.iterations_run(), 1u);
}

TEST(Trainer, MetricsAreDeltasNotTotals) {
  Harness h(sim_cfg());
  auto model = build_model(h.engine(), ModelSpec::vgg_tiny());
  Trainer trainer(h, *model);
  const std::uint64_t launches0 = h.engine().stats().kernels;
  const auto a = trainer.run_iteration();
  const std::uint64_t launches1 = h.engine().stats().kernels;
  const auto b = trainer.run_iteration();
  // Steady state: same work, so the deltas must be almost identical, not
  // cumulative.
  EXPECT_NEAR(b.seconds, a.seconds, a.seconds);  // same magnitude
  EXPECT_LT(b.seconds, 1.9 * a.seconds);
  EXPECT_GT(a.kernel_launches, 0u);
  EXPECT_EQ(a.kernel_launches, launches1 - launches0);
  EXPECT_EQ(b.kernel_launches, h.engine().stats().kernels - launches1);
}

TEST(Trainer, SteadyStateIsStable) {
  // The paper checks that iteration behaviour is consistent; in our fully
  // deterministic sim backend, steady-state iterations are *identical*.
  Harness h(sim_cfg());
  auto model = build_model(h.engine(), ModelSpec::vgg_tiny());
  Trainer trainer(h, *model);
  trainer.run_iteration();  // warm-up
  const auto a = trainer.run_iteration();
  const auto b = trainer.run_iteration();
  // The clock accumulates, so the delta may differ in the last ulp.
  EXPECT_NEAR(a.seconds, b.seconds, 1e-12 * a.seconds + 1e-15);
  EXPECT_EQ(a.dram.bytes_read, b.dram.bytes_read);
  EXPECT_EQ(a.nvram.bytes_written, b.nvram.bytes_written);
}

TEST(Trainer, TimeCategoriesSumBelowTotal) {
  Harness h(sim_cfg());
  auto model = build_model(h.engine(), ModelSpec::resnet_tiny());
  Trainer trainer(h, *model);
  const auto m = trainer.run_iteration();
  EXPECT_LE(m.compute_seconds + m.movement_seconds + m.gc_seconds,
            m.seconds + 1e-9);
}

TEST(Trainer, OccupancySamplingHooksIn) {
  Harness h(sim_cfg());
  auto model = build_model(h.engine(), ModelSpec::vgg_tiny());
  telemetry::TimeSeries series("resident");
  TrainerOptions opts;
  opts.occupancy = &series;
  Trainer trainer(h, *model, opts);
  trainer.run_iteration();
  EXPECT_GE(series.samples().size(), h.engine().stats().kernels);
  EXPECT_GT(series.max_value(), 0.0);
  // Samples are time-monotone.
  for (std::size_t i = 1; i < series.samples().size(); ++i) {
    EXPECT_GE(series.samples()[i].t, series.samples()[i - 1].t);
  }
}

TEST(Trainer, TwoLmModeCollectsCacheDeltas) {
  HarnessConfig c = sim_cfg();
  c.mode = Mode::kTwoLmNone;
  c.dram_bytes = 6 * util::MiB;  // 98 304 sets, not a power of two
  Harness h(c);
  auto model = build_model(h.engine(), ModelSpec::vgg_tiny());
  Trainer trainer(h, *model);
  const auto a = trainer.run_iteration();
  const auto b = trainer.run_iteration();
  // Per-iteration deltas, not cumulative.  The exact values pin the tag
  // model on a real access stream.
  EXPECT_EQ(a.cache.accesses, 1125u);
  EXPECT_EQ(a.cache.hits, 793u);
  EXPECT_EQ(a.cache.clean_misses, 332u);
  EXPECT_EQ(a.cache.dirty_misses, 0u);
  EXPECT_EQ(a.nvram.bytes_written, 0u);
  EXPECT_DOUBLE_EQ(a.seconds, 0.0049670738002232139);
  EXPECT_EQ(b.cache.accesses, 1125u);
  EXPECT_EQ(b.cache.hits, 1125u);
  EXPECT_EQ(b.cache.clean_misses, 0u);
  EXPECT_EQ(b.cache.dirty_misses, 0u);
  EXPECT_EQ(b.nvram.bytes_written, 0u);
  EXPECT_DOUBLE_EQ(b.seconds, 0.0036644091796874971);
}

TEST(Trainer, TwoLmModesPinDirtyMisses) {
  // resnet_tiny overflows both caches, so conflict misses find dirty lines
  // and write them back, in both 2LM modes.
  struct Pin {
    std::uint64_t accesses, hits, clean, dirty, nvram_written;
    double seconds;
  };
  const auto check = [](Mode mode, std::size_t dram_bytes,
                        const std::array<Pin, 2>& iterations) {
    HarnessConfig c = sim_cfg();
    c.mode = mode;
    c.dram_bytes = dram_bytes;
    c.nvram_bytes = 96 * util::MiB;
    Harness h(c);
    auto model = build_model(h.engine(), ModelSpec::resnet_tiny());
    Trainer trainer(h, *model);
    for (const Pin& want : iterations) {
      const auto m = trainer.run_iteration();
      EXPECT_EQ(m.cache.accesses, want.accesses);
      EXPECT_EQ(m.cache.hits, want.hits);
      EXPECT_EQ(m.cache.clean_misses, want.clean);
      EXPECT_EQ(m.cache.dirty_misses, want.dirty);
      EXPECT_EQ(m.nvram.bytes_written, want.nvram_written);
      EXPECT_DOUBLE_EQ(m.seconds, want.seconds);
    }
  };
  check(Mode::kTwoLmNone, 48 * util::KiB,  // 768 sets
        {{{4160, 2757, 938, 465, 29760, 0.019949616140403397},
          {4160, 3336, 125, 699, 44736, 0.02104584555389356}}});
  check(Mode::kTwoLmM, 16 * util::KiB,
        {{{4160, 2818, 526, 816, 52224, 0.021242338818116317},
          {4160, 2944, 312, 904, 57856, 0.022014569312120369}}});
}

TEST(Trainer, BusUtilizationBounded) {
  Harness h(sim_cfg());
  auto model = build_model(h.engine(), ModelSpec::vgg_tiny());
  Trainer trainer(h, *model);
  const auto m = trainer.run_iteration();
  EXPECT_GE(m.dram_bus_utilization, 0.0);
  EXPECT_LE(m.dram_bus_utilization, 1.0);
}

TEST(Trainer, RealBackendReportsLoss) {
  HarnessConfig c = sim_cfg();
  c.backend = Backend::kReal;
  Harness h(c);
  auto model = build_model(h.engine(), ModelSpec::vgg_tiny());
  model->init(h.engine(), 3);
  Trainer trainer(h, *model);
  const auto m = trainer.run_iteration();
  EXPECT_GT(m.loss, 0.0f);
  EXPECT_TRUE(std::isfinite(m.loss));
}

}  // namespace
}  // namespace ca::dnn
