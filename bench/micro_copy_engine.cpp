// Microbenchmark: the copy engine's real data plane, per dispatch level.
//
// Three families are timed (host wall seconds -- this measures the real
// byte movement, not the simulated clock):
//   copy     engine.copy per transfer size and ISA level, writeback
//            direction (fast -> slow), NT stores engaged
//   nt-vs-t  the headline comparison: the same large writeback with
//            non_temporal on (streamed past the cache) vs off (temporal
//            rep-movsb / memcpy), plus the modeled-time ratio the
//            bandwidth model assigns to the same pair
//   fill     engine.fill_zero, which always takes the writeback hint
//
// The acceptance number -- NT writeback vs temporal on the large transfer
// -- is emitted into BENCH_copy_engine.json as an explicit "speedup:"
// record so CI can regress on it.  The NT win on real NVRAM is the paper's
// point (PAPER.md SV-d); on a DRAM-only host the ratio mostly reflects
// cache-allocation avoidance, so treat the modeled ratio as the shape
// target and the wall ratio as evidence the path is wired.
//
// `--smoke` shrinks sizes and repetitions for the bench-smoke ctest label.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "mem/arena.hpp"
#include "mem/copy_engine.hpp"
#include "simd/copy.hpp"
#include "simd/isa.hpp"
#include "util/align.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

struct Rig {
  explicit Rig(std::size_t arena_bytes)
      : platform(sim::Platform::cascade_lake_scaled(64 * util::MiB,
                                                    64 * util::MiB)),
        engine(platform, clock, counters),
        src(arena_bytes),
        dst(arena_bytes) {}

  sim::Platform platform;
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  mem::CopyEngine engine;
  mem::Arena src;
  mem::Arena dst;
};

/// Wall seconds for `reps` writeback copies of `bytes` (fast -> slow).
double time_copy(Rig& rig, std::size_t bytes, int reps, bool non_temporal) {
  WallTimer wall;
  for (int r = 0; r < reps; ++r) {
    rig.engine.copy(rig.dst.base(), sim::kSlow, rig.src.base(), sim::kFast,
                    bytes, non_temporal);
  }
  return wall.seconds();
}

double gibps(std::size_t bytes, int reps, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(bytes) * reps / seconds /
         (1024.0 * 1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::size_t big = smoke ? 2 * util::MiB : 16 * util::MiB;
  const int reps = smoke ? 2 : 20;

  Rig rig(big);
  const simd::IsaLevel entry = simd::active_level();

  std::printf("=== micro_copy_engine ===\n");
  std::printf(
      "Real copy-path throughput per dispatch level (writeback direction,\n"
      "fast -> slow; NT threshold %zu KiB, copy chunk %zu KiB).  Host wall\n"
      "seconds over %d rep(s).%s\n\n",
      simd::kNtThreshold / 1024, rig.platform.copy_chunk / 1024, reps,
      smoke ? "  [smoke sizes]" : "");

  BenchReport report("copy_engine");
  report.csv_header({"label", "seconds", "GiB/s"});

  // --- per-level writeback copy sweep ---------------------------------------
  const std::size_t sizes[] = {64 * util::KiB, 1 * util::MiB, big};
  std::printf("%-34s %12s %9s\n", "copy (writeback)", "wall [s]", "GiB/s");
  for (int l = 0; l <= static_cast<int>(simd::max_supported_level()); ++l) {
    const auto level = static_cast<simd::IsaLevel>(l);
    simd::set_level(level);
    for (const std::size_t bytes : sizes) {
      const double t = time_copy(rig, bytes, reps, /*non_temporal=*/true);
      const std::string label = std::string("copy ") +
                                simd::level_name(level) + " " +
                                util::format_bytes(bytes);
      std::printf("%-34s %12.4f %9.2f\n", label.c_str(), t,
                  gibps(bytes, reps, t));
      report.add(label, 0.0, t, bytes);
      report.csv_row({label, util::format_fixed(t, 4),
                      util::format_fixed(gibps(bytes, reps, t), 2)});
    }
  }
  std::printf("\n");

  // --- NT writeback vs temporal: the acceptance pair ------------------------
  simd::set_level(simd::max_supported_level());
  const int nt_reps = reps * 2;
  const double t_nt = time_copy(rig, big, nt_reps, /*non_temporal=*/true);
  const double t_tmp = time_copy(rig, big, nt_reps, /*non_temporal=*/false);
  const double wall_ratio = t_nt > 0.0 ? t_tmp / t_nt : 0.0;
  const double m_nt =
      rig.engine.modeled_copy_time(big, sim::kFast, sim::kSlow, true);
  const double m_tmp =
      rig.engine.modeled_copy_time(big, sim::kFast, sim::kSlow, false);
  const double modeled_ratio = m_nt > 0.0 ? m_tmp / m_nt : 0.0;
  std::printf("nt writeback vs temporal (%s x %d, level %s):\n"
              "  wall    %0.4fs vs %0.4fs  -> %.2fx\n"
              "  modeled %0.4fs vs %0.4fs  -> %.2fx (write_bw_nt curve)\n\n",
              util::format_bytes(big).c_str(), nt_reps,
              simd::level_name(simd::active_level()), t_nt, t_tmp, wall_ratio,
              m_nt, m_tmp, modeled_ratio);
  report.add_speedup("nt writeback vs temporal, wall", wall_ratio, big);
  report.add("speedup: nt writeback vs temporal, modeled", m_tmp - m_nt,
             modeled_ratio, big);
  report.csv_row({"nt vs temporal wall ratio",
                  util::format_fixed(wall_ratio, 2), ""});
  report.csv_row({"nt vs temporal modeled ratio",
                  util::format_fixed(modeled_ratio, 2), ""});

  // --- fill_zero (always writeback-hinted) ----------------------------------
  double t_fill = 0.0;
  {
    WallTimer wall;
    for (int r = 0; r < reps; ++r) {
      rig.engine.fill_zero(rig.dst.base(), sim::kSlow, big);
    }
    t_fill = wall.seconds();
  }
  std::printf("%-34s %12.4f %9.2f\n\n", "fill_zero (writeback)", t_fill,
              gibps(big, reps, t_fill));
  report.add("fill_zero writeback", 0.0, t_fill, big);
  report.csv_row({"fill_zero writeback", util::format_fixed(t_fill, 4),
                  util::format_fixed(gibps(big, reps, t_fill), 2)});

  // --- telemetry ------------------------------------------------------------
  std::printf("%s\n", telemetry::format_simd_report(
                          {{"DRAM", rig.counters.device(sim::kFast)
                                        .bytes_written_nt},
                           {"NVRAM", rig.counters.device(sim::kSlow)
                                         .bytes_written_nt}})
                          .c_str());
  std::printf("engine stats: %llu copies, %llu bytes\n",
              static_cast<unsigned long long>(rig.engine.stats().copies),
              static_cast<unsigned long long>(rig.engine.stats().bytes));

  simd::set_level(entry);
  report.write(argc, argv, "micro_copy_engine.csv");
  return 0;
}
