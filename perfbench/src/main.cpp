// perfbench: the repository benchmark.  See README.md for the workloads,
// the metrics and how to run it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--commit <id>] [--spans <file>]
//
// One process, one workload, closed loop, one trainer:
//   1. Set-up and cold iteration, several times: Harness + build_model +
//      init (timed as set-up), then the first iteration (timed as cold).
//      Every repetition must reproduce the first one's simulated results;
//      the first one is an untimed warm-up that goes on to run a few more
//      iterations.
//   2. On the middle repetition, steady iterations for --seconds.
//   3. The traced run: the same workload and seed assembled with timing
//      decorators (workloads.hpp), replaying the untraced iteration sequence
//      -- all of it with --trace 1, the first few with --trace 0 -- and
//      matching its simulated results bit for bit.
// The last line of stdout is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "simd/isa.hpp"
#include "workloads.hpp"

namespace {

using ca::dnn::IterationMetrics;
using perfbench::SpanName;

/// Timed set-up + cold-iteration repetitions per run, after one untimed
/// warm-up; setup_s and first_iter_host_s are their medians.
constexpr int kSetupRuns = 8;
/// Host seconds (at the nominal iteration time) of untimed iterations on the
/// warm-up repetition.  A process sometimes runs its first seconds of work
/// at half speed, after the host has been idle.
constexpr double kWarmupSeconds = 2.0;
/// The repetition that also runs the steady iterations.  It sits in the
/// middle, so the cold samples come from both ends of the run and a burst of
/// load from other tenants moves fewer of them.
constexpr int kSteadyRep = kSetupRuns / 2;
/// Fewest steady iterations a run measures.
constexpr std::size_t kMinSteady = 20;
/// Iterations the --trace 0 run replays traced, for the fidelity check.
constexpr std::size_t kFidelityIterations = 3;

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string commit = "unknown";
  std::string spans;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (!(a.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (a.trace != 0 && a.trace != 1) return false;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !a.workload.empty();
}

/// Why this build must not be measured, or nullptr.  Debug, sanitizer,
/// CA_AUDIT and CA_RACE builds compile in the audit, lockdep, ptrprov or
/// sanitizer paths, so they time a different program.
const char* instrumented_build() {
#if defined(CA_AUDIT_ENABLED)
  return "CA_AUDIT_ENABLED";
#elif defined(CA_RACE)
  return "CA_RACE";
#elif defined(CA_LOCKDEP_ENABLED)
  return "CA_LOCKDEP_ENABLED";
#elif defined(CA_PTRPROV_ENABLED)
  return "CA_PTRPROV_ENABLED";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer";
#elif !defined(NDEBUG)
  return "assertions enabled (no NDEBUG)";
#else
  return nullptr;
#endif
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

// --- correctness checks ------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one iteration; `problem` empty means it passed.
  void iteration(const std::string& problem, const char* run, std::size_t i) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    std::printf("CHECK FAILED [%s iteration %zu]: %s\n", run, i,
                problem.c_str());
  }
};

/// Per-iteration invariants.
std::string invariants(const IterationMetrics& m, bool real) {
  const auto& c = m.cache;
  if (c.hits + c.clean_misses + c.dirty_misses != c.accesses) {
    return "cache hits + clean misses + dirty misses != accesses";
  }
  if (!std::isfinite(m.seconds) || !(m.seconds > 0.0)) {
    return "simulated seconds not finite and > 0";
  }
  if (real && !std::isfinite(m.loss)) return "loss not finite";
  return {};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_traffic(const ca::telemetry::DeviceTraffic& a,
                  const ca::telemetry::DeviceTraffic& b) {
  return a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.bytes_written_nt == b.bytes_written_nt &&
         a.read_ops == b.read_ops && a.write_ops == b.write_ops;
}

/// Empty when `a` and `b` carry bit-identical simulated results, else the
/// first field that differs.
std::string sim_mismatch(const IterationMetrics& a, const IterationMetrics& b) {
  if (!same_bits(a.seconds, b.seconds)) return "simulated seconds differ";
  if (!same_bits(a.compute_seconds, b.compute_seconds) ||
      !same_bits(a.movement_seconds, b.movement_seconds) ||
      !same_bits(a.gc_seconds, b.gc_seconds)) {
    return "simulated time categories differ";
  }
  if (!same_traffic(a.dram, b.dram)) return "DRAM traffic differs";
  if (!same_traffic(a.nvram, b.nvram)) return "NVRAM traffic differs";
  if (a.cache.accesses != b.cache.accesses || a.cache.hits != b.cache.hits ||
      a.cache.clean_misses != b.cache.clean_misses ||
      a.cache.dirty_misses != b.cache.dirty_misses) {
    return "cache stats differ";
  }
  if (std::bit_cast<std::uint32_t>(a.loss) !=
      std::bit_cast<std::uint32_t>(b.loss)) {
    return "loss differs";
  }
  if (a.async_transfers != b.async_transfers ||
      !same_bits(a.async_stall_seconds, b.async_stall_seconds) ||
      !same_bits(a.async_overlap_seconds, b.async_overlap_seconds)) {
    return "async mover stats differ";
  }
  return {};
}

// --- the untraced run ----------------------------------------------------------

struct Untraced {
  std::vector<double> setup_s;
  std::vector<double> first_iter_s;
  std::vector<double> steady_host_s;
  std::vector<IterationMetrics> sequence;  ///< kSteadyRep, cold first
  double peak_rss_mib = 0.0;
};

Untraced run_untraced(const perfbench::Workload& w, const Args& args,
                      std::size_t warmup, std::size_t steady, Checks& checks) {
  const bool real = w.config.backend == ca::dnn::Backend::kReal;
  ca::dnn::TrainerOptions opts;
  opts.seed = args.seed;
  Untraced u;
  IterationMetrics first_cold;
  for (int rep = 0; rep <= kSetupRuns; ++rep) {
    const double t0 = now_s();
    ca::dnn::Harness harness(w.config);
    auto model = ca::dnn::build_model(harness.engine(), w.spec);
    model->init(harness.engine(), args.seed);
    const double t1 = now_s();

    ca::dnn::Trainer trainer(harness, *model, opts);
    const double t2 = now_s();
    IterationMetrics cold = trainer.run_iteration();
    if (rep > 0) {
      u.setup_s.push_back(t1 - t0);
      u.first_iter_s.push_back(now_s() - t2);
    }
    std::string problem = invariants(cold, real);
    if (problem.empty() && rep > 0) {
      problem = sim_mismatch(cold, first_cold);
      if (!problem.empty()) problem += " from the first set-up's cold iteration";
    }
    checks.iteration(problem, "cold", static_cast<std::size_t>(rep));
    if (rep == 0) {
      first_cold = cold;
      for (std::size_t i = 1; i <= warmup; ++i) {
        checks.iteration(invariants(trainer.run_iteration(), real), "warm-up",
                         i);
      }
    }
    if (rep != kSteadyRep) continue;

    u.sequence.push_back(cold);
    for (std::size_t i = 0; i < steady; ++i) {
      const double t = now_s();
      IterationMetrics m = trainer.run_iteration();
      u.steady_host_s.push_back(now_s() - t);
      checks.iteration(invariants(m, real), "untraced", u.sequence.size());
      u.sequence.push_back(m);
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  u.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return u;
}

// --- the traced run ------------------------------------------------------------

struct Traced {
  perfbench::Tracer tracer;
  std::vector<IterationMetrics> sequence;
  std::vector<perfbench::LayerDelta> layers;
};

void run_traced(const perfbench::Workload& w, const Args& args,
                const Untraced& u, std::size_t iterations, Traced& t,
                Checks& checks) {
  const bool real = w.config.backend == ca::dnn::Backend::kReal;
  perfbench::TracedSystem system(w.config, t.tracer);
  auto model = ca::dnn::build_model(system.engine(), w.spec);
  model->init(system.engine(), args.seed);
  ca::dnn::TrainerOptions opts;
  opts.seed = args.seed;
  perfbench::TracedTrainer trainer(system, *model, opts, t.tracer);
  for (std::size_t i = 0; i < iterations; ++i) {
    perfbench::LayerDelta layers;
    IterationMetrics m = trainer.run_iteration(layers);
    std::string problem = invariants(m, real);
    if (problem.empty()) {
      problem = sim_mismatch(m, u.sequence[i]);
      if (!problem.empty()) problem += " from the untraced run";
    }
    const auto& p = t.tracer.profiles()[i];
    std::int64_t self_sum = 0;
    for (const std::int64_t s : p.self_ns) self_sum += s;
    if (problem.empty() &&
        self_sum != p.total_ns[static_cast<std::size_t>(SpanName::kIteration)]) {
      problem = "span self times do not add up to the iteration";
    }
    checks.iteration(problem, "traced", i);
    t.sequence.push_back(m);
    t.layers.push_back(layers);
  }
  if (!args.spans.empty()) {
    const auto last = static_cast<std::uint32_t>(iterations - 1);
    const long n = t.tracer.write_chrome_trace(args.spans, last);
    if (n < 0) {
      std::printf("could not write spans to %s\n", args.spans.c_str());
    } else {
      std::printf("wrote %ld spans of iteration %u to %s\n", n, last,
                  args.spans.c_str());
    }
  }
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted);
  out += ", \"failed\": " + std::to_string(checks.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::puts(out.c_str());
}

std::vector<Metric> end_to_end(const Untraced& u) {
  std::vector<double> sim;
  std::vector<double> traffic;
  for (std::size_t i = 1; i < u.sequence.size(); ++i) {
    const auto& m = u.sequence[i];
    sim.push_back(m.seconds);
    traffic.push_back(static_cast<double>(m.dram.total() + m.nvram.total()) /
                      kMiB);
  }
  const auto samples = [](const char* name, const std::vector<double>& v) {
    std::printf("%s samples:", name);
    for (const double x : v) std::printf(" %.4f", x);
    std::printf("\n");
  };
  samples("setup_s", u.setup_s);
  samples("first_iter_host_s", u.first_iter_s);
  // The tail: the slowest steady iteration with at least ten beyond it
  // (kMinSteady guarantees there are more than ten).
  const std::size_t n = u.steady_host_s.size();
  std::vector<double> sorted = u.steady_host_s;
  std::sort(sorted.begin(), sorted.end());
  const double tail = sorted[n - 11];
  std::printf("host_iter_tail_s is p%.1f of %zu steady iterations\n",
              100.0 * static_cast<double>(n - 10) / static_cast<double>(n), n);
  return {
      {"sim_iter_s", median(sim), "sim_s"},
      {"host_iter_s", median(u.steady_host_s), "s"},
      {"host_iter_tail_s", tail, "s"},
      {"setup_s", median(u.setup_s), "s"},
      {"first_iter_host_s", median(u.first_iter_s), "s"},
      {"peak_rss_mib", u.peak_rss_mib, "MiB"},
      {"traffic_mib", median(traffic), "MiB"},
  };
}

std::vector<Metric> per_layer(const Untraced& u, const Traced& t) {
  const auto& profiles = t.tracer.profiles();
  const std::size_t first = 1;  // steady iterations only
  const auto n = static_cast<double>(profiles.size() - first);
  // Mean per steady iteration of one span name's self_ns, total_ns or calls.
  const auto mean = [&](const auto field, SpanName s) {
    double sum = 0.0;
    for (std::size_t i = first; i < profiles.size(); ++i) {
      sum += static_cast<double>((profiles[i].*field)[static_cast<std::size_t>(s)]);
    }
    return sum / n;
  };
  const auto self_s = [&](SpanName s) {
    return mean(&perfbench::IterationProfile::self_ns, s) * 1e-9;
  };
  const auto total_s = [&](SpanName s) {
    return mean(&perfbench::IterationProfile::total_ns, s) * 1e-9;
  };
  const auto calls = [&](SpanName s) {
    return mean(&perfbench::IterationProfile::calls, s);
  };

  std::vector<double> kernel_us;
  std::vector<double> traced_iter_s;
  double kernels = 0.0;
  for (std::size_t i = first; i < profiles.size(); ++i) {
    for (const std::int64_t ns : profiles[i].kernel_ns) {
      kernel_us.push_back(static_cast<double>(ns) * 1e-3);
    }
    kernels += static_cast<double>(profiles[i].kernels);
    traced_iter_s.push_back(
        static_cast<double>(
            profiles[i].total_ns[static_cast<std::size_t>(SpanName::kIteration)]) *
        1e-9);
  }

  // Sums of the layer counters over the steady iterations.
  perfbench::LayerDelta sum;
  ca::twolm::CacheStats cache;
  ca::telemetry::KernelCounters k;
  double compute = 0.0, movement = 0.0, gc = 0.0, stall = 0.0, overlap = 0.0;
  double nvram_written = 0.0;
  double async_transfers = 0.0;
  std::size_t inflight_peak = 0;
  for (std::size_t i = first; i < t.sequence.size(); ++i) {
    const auto& m = t.sequence[i];
    const auto& l = t.layers[i];
    sum.copies += l.copies;
    sum.copy_bytes += l.copy_bytes;
    sum.async_bytes += l.async_bytes;
    sum.allocations += l.allocations;
    sum.gc_collections += l.gc_collections;
    sum.gc_pressure_triggers += l.gc_pressure_triggers;
    for (int d = 0; d < 2; ++d) {
      sum.bin_exact[d] += l.bin_exact[d];
      sum.bin_spill[d] += l.bin_spill[d];
    }
    cache.accesses += m.cache.accesses;
    cache.hits += m.cache.hits;
    cache.clean_misses += m.cache.clean_misses;
    cache.dirty_misses += m.cache.dirty_misses;
    k.gemm_seconds += m.kernels.gemm_seconds;
    k.gemm_flops += m.kernels.gemm_flops;
    k.im2col_seconds += m.kernels.im2col_seconds;
    k.eltwise_seconds += m.kernels.eltwise_seconds;
    compute += m.compute_seconds;
    movement += m.movement_seconds;
    gc += m.gc_seconds;
    nvram_written += static_cast<double>(m.nvram.bytes_written);
    stall += m.async_stall_seconds;
    overlap += m.async_overlap_seconds;
    async_transfers += static_cast<double>(m.async_transfers);
    inflight_peak = std::max(inflight_peak, m.async_inflight_peak);
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto bin_rate = [&](int d) {
    return ratio(static_cast<double>(sum.bin_exact[d]),
                 static_cast<double>(sum.bin_exact[d] + sum.bin_spill[d]));
  };

  double policy_self = 0.0;
  for (auto s = static_cast<std::size_t>(SpanName::kPlaceNew);
       s <= static_cast<std::size_t>(SpanName::kEndKernel); ++s) {
    policy_self += self_s(static_cast<SpanName>(s));
  }
  const double dnn_self = self_s(SpanName::kIteration) +
                          self_s(SpanName::kForward) +
                          self_s(SpanName::kBackward) +
                          self_s(SpanName::kSgdStep) +
                          self_s(SpanName::kEndIteration);
  const double twolm_s = self_s(SpanName::kTwoLmChargeMemory);
  const double blocks = static_cast<double>(cache.accesses) / n;

  std::vector<Metric> out = {
      {"dnn.forward_s", total_s(SpanName::kForward), "s"},
      {"dnn.backward_s", total_s(SpanName::kBackward), "s"},
      {"dnn.sgd_step_s", total_s(SpanName::kSgdStep), "s"},
      {"dnn.end_iteration_s", total_s(SpanName::kEndIteration), "s"},
      {"dnn.self_s", dnn_self, "s"},
      {"dnn.kernels", kernels / n, "count"},
      {"dnn.kernel_host_us_p50", percentile(kernel_us, 50.0), "us"},
      {"dnn.kernel_host_us_p99", percentile(kernel_us, 99.0), "us"},
  };
  const std::pair<SpanName, const char*> hooks[] = {
      {SpanName::kPlaceNew, "place_new"},
      {SpanName::kWillRead, "will_read"},
      {SpanName::kWillWrite, "will_write"},
      {SpanName::kArchive, "archive"},
      {SpanName::kRetire, "retire"},
      {SpanName::kOnDestroy, "on_destroy"},
      {SpanName::kBeginKernel, "begin_kernel"},
      {SpanName::kEndKernel, "end_kernel"},
  };
  for (const auto& [span, hook] : hooks) {
    out.push_back({std::string("policy.") + hook + "_s", self_s(span), "s"});
    out.push_back({std::string("policy.") + hook + "_calls", calls(span),
                   "count"});
  }
  const double traced_iter = median(traced_iter_s);
  const std::vector<Metric> rest = {
      {"policy.self_s", policy_self, "s"},
      {"twolm.charge_memory_s", twolm_s, "s"},
      {"twolm.block_accesses", blocks, "count"},
      {"twolm.ns_per_block", ratio(twolm_s * 1e9, blocks), "ns"},
      {"twolm.hit_rate", cache.hit_rate(), "ratio"},
      {"twolm.dirty_miss_rate", cache.dirty_miss_rate(), "ratio"},
      {"exec.charge_memory_s", self_s(SpanName::kExecChargeMemory), "s"},
      {"dm.drain_transfers_s", self_s(SpanName::kDrainTransfers), "s"},
      {"dm.async_transfers", async_transfers / n, "count"},
      {"dm.stall_s", stall / n, "sim_s"},
      {"dm.overlap_ratio", ratio(overlap, overlap + stall), "ratio"},
      {"dm.inflight_peak", static_cast<double>(inflight_peak), "count"},
      {"dm.allocations", static_cast<double>(sum.allocations) / n,
       "count"},
      {"mem.copies", static_cast<double>(sum.copies) / n, "count"},
      {"mem.copy_bytes", static_cast<double>(sum.copy_bytes) / n,
       "bytes"},
      {"mem.async_bytes", static_cast<double>(sum.async_bytes) / n,
       "bytes"},
      {"mem.alloc_bin_exact_rate.dram", bin_rate(0), "ratio"},
      {"mem.alloc_bin_exact_rate.nvram", bin_rate(1), "ratio"},
      {"core.gc_collections", static_cast<double>(sum.gc_collections) / n,
       "count"},
      {"core.gc_pressure_triggers",
       static_cast<double>(sum.gc_pressure_triggers) / n, "count"},
      {"sim.compute_s", compute / n, "sim_s"},
      {"sim.movement_s", movement / n, "sim_s"},
      {"sim.gc_s", gc / n, "sim_s"},
      {"sim.nvram_write_mib", nvram_written / kMiB / n, "MiB"},
      {"simd.gemm_s", k.gemm_seconds / n, "s"},
      {"simd.gemm_gflops", k.gemm_gflops(), "GFLOP/s"},
      {"simd.im2col_s", k.im2col_seconds / n, "s"},
      {"simd.eltwise_s", k.eltwise_seconds / n, "s"},
      {"trace.iter_host_s", total_s(SpanName::kIteration), "s"},
      {"trace_overhead", ratio(traced_iter, median(u.steady_host_s)), "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--commit <id>] [--spans <file>]\n");
    return 2;
  }
  if (const char* why = instrumented_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to record from an instrumented build "
                 "(%s); configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo\n",
                 why);
    return 3;
  }
  const std::size_t cpus = nproc();
  // parallel_for runs on the caller too, so a pool of nproc - 2 helpers
  // leaves one core free; the cap keeps the modeled kernel parallelism,
  // and with it the simulated results, the same on bigger hosts.
  const std::size_t real_threads =
      std::clamp<std::size_t>(cpus > 2 ? cpus - 2 : 1, 1, 2);
  const auto workload =
      perfbench::make_workload(args.workload, args.smoke, real_threads);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const auto& n : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const perfbench::Workload& w = *workload;
  std::printf(
      "provenance: {\"commit\": \"%s\", \"build_type\": \"%s\", \"simd\": "
      "\"%s\", \"nproc\": %zu, \"kernel_threads\": %zu, \"seed\": %llu, "
      "\"workload\": \"%s\", \"model\": \"%s\", \"mode\": \"%s\", "
      "\"smoke\": %s}\n",
      args.commit.c_str(), PERFBENCH_BUILD_TYPE,
      ca::simd::level_name(ca::simd::active_level()), cpus,
      w.config.kernel_threads, static_cast<unsigned long long>(args.seed),
      w.name.c_str(), w.spec.name.c_str(), ca::dnn::to_string(w.config.mode),
      args.smoke ? "true" : "false");
  std::fflush(stdout);

  // The measured work is fixed by --seconds, not by how fast this host
  // runs it, so two commits always time the same iterations.
  const auto steady = std::max(
      kMinSteady,
      static_cast<std::size_t>(std::lround(args.seconds / w.nominal_iter_s)));
  const auto warmup =
      static_cast<std::size_t>(std::lround(kWarmupSeconds / w.nominal_iter_s));
  Checks checks;
  const Untraced u = run_untraced(w, args, warmup, steady, checks);
  const std::size_t replay =
      args.trace == 1 ? u.sequence.size()
                      : std::min(u.sequence.size(), kFidelityIterations);
  Traced t;
  run_traced(w, args, u, replay, t, checks);

  const std::vector<Metric> e2e = end_to_end(u);
  if (w.reference_sim_s > 0.0) {
    // EXPERIMENTS.md averages steady iterations 1 and 2 (bench/fig2).
    const double fig2 = 0.5 * (u.sequence[1].seconds + u.sequence[2].seconds);
    std::printf(
        "reference: mean simulated seconds of iterations 1-2 %.4f vs "
        "EXPERIMENTS.md %.1f (%+.3f%%); sim_iter_s %.4f\n",
        fig2, w.reference_sim_s, 100.0 * (fig2 / w.reference_sim_s - 1.0),
        e2e.front().value);
  }
  const std::vector<Metric> metrics =
      args.trace == 1 ? per_layer(u, t) : e2e;
  const auto print_table = [](const std::vector<Metric>& table) {
    for (const auto& m : table) {
      std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  };
  print_table(e2e);
  if (args.trace == 1) print_table(metrics);
  std::printf("checks: %llu failed of %llu iterations (error_rate %.6g)\n",
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted),
              static_cast<double>(checks.failed) /
                  static_cast<double>(checks.attempted));
  bool finite = true;
  for (const auto& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = checks.failed == 0 && finite;
  std::fflush(stdout);
  print_result(correct, checks, metrics);
  return 0;
}
