// The paper's evaluation -- Table III and Figs. 2-7 -- from one binary: a
// cell runner and one renderer per table or figure (see DESIGN.md §4).
//
// A *cell* is one training run: a model, a mode, DRAM and NVRAM budgets and
// an iteration count.  Figs. 2-6 all read the same 18 large-model cells
// (three networks under the six modes of §IV), so each of those runs once
// per process, on first use, and every renderer reads it from one map.
// Table III's and Fig. 7's cells are used by one renderer each and run
// directly.
//
// Usage: paper [table3|fig2|fig3|fig4|fig5|fig6|fig7]... [output dir]
// With no figure named, all seven render in paper order.  Given an output
// directory, every table is also written there as CSV.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>

#include "common.hpp"

using namespace ca;
using namespace ca::bench;

namespace {

using Rows = std::vector<std::vector<std::string>>;

/// One training run (§IV-A).  The first iteration warms the heaps; later
/// ones are steady state (the paper runs 4 and checks consistency).
struct Cell {
  ModelSpec spec;
  Mode mode = Mode::kCaLM;
  std::size_t dram = 180 * util::MiB;
  std::size_t nvram = 1300 * util::MiB;
  int iterations = 3;
};

struct CellResult {
  std::vector<IterationMetrics> iterations;
  /// Resident heap bytes after every kernel, and the sample count at the
  /// end of each iteration.
  telemetry::TimeSeries occupancy{"resident"};
  std::vector<std::size_t> iteration_ends;
  std::size_t parameters = 0;

  /// Steady-state iteration (the last one).
  [[nodiscard]] const IterationMetrics& steady() const {
    return iterations.back();
  }
};

CellResult run(const Cell& cell) {
  HarnessConfig hc;
  hc.mode = cell.mode;
  hc.dram_bytes = cell.dram;
  hc.nvram_bytes = cell.nvram;
  hc.backend = dnn::Backend::kSim;
  hc.compute_efficiency = cell.spec.compute_efficiency;
  hc.conv_read_passes = cell.spec.conv_read_passes;
  Harness harness(hc);
  auto model = dnn::build_model(harness.engine(), cell.spec);
  model->init(harness.engine(), 1);
  CellResult result;
  result.parameters = model->parameter_count();
  dnn::TrainerOptions opts;
  opts.occupancy = &result.occupancy;
  dnn::Trainer trainer(harness, *model, opts);
  for (int i = 0; i < cell.iterations; ++i) {
    result.iterations.push_back(trainer.run_iteration());
    result.iteration_ends.push_back(result.occupancy.samples().size());
  }
  return result;
}

/// The paper's operating-mode lineup for Figs. 2, 5 and 6 (§IV).
const Mode kModes[] = {Mode::kTwoLmNone, Mode::kTwoLmM, Mode::kCaNone,
                       Mode::kCaL,       Mode::kCaLM,   Mode::kCaLMP};

/// A large network's cell under `mode` at the default budgets, run on
/// first use and kept for every later renderer.
const CellResult& large(const ModelSpec& spec, Mode mode) {
  static std::map<std::pair<std::string, Mode>, CellResult> cells;
  const auto key = std::make_pair(spec.name, mode);
  auto it = cells.find(key);
  if (it == cells.end()) {
    it = cells.emplace(key, run({.spec = spec, .mode = mode})).first;
  }
  return it->second;
}

// Table III: the benchmark networks and their measured per-iteration
// footprint (paper: large ~520-530 "GB", small 170-180; MiB at 1:1000).
void table3(const char* dir) {
  print_header("Table III",
               "CNN models used as benchmarks; footprint is the measured "
               "minimum memory for one training iteration.\n"
               "Paper: large ~520-530, small 170-180 (GB there, MiB here).");
  const std::pair<const char*, ModelSpec> models[] = {
      {"large", ModelSpec::densenet264_large()},
      {"large", ModelSpec::resnet200_large()},
      {"large", ModelSpec::vgg416_large()},
      {"small", ModelSpec::densenet264_small()},
      {"small", ModelSpec::resnet200_small()},
      {"small", ModelSpec::vgg116_small()}};
  Rows rows = {
      {"class", "model", "batch", "footprint", "params", "kernels/iter"}};
  for (const auto& [klass, spec] : models) {
    // Measure the true footprint: CA:LM with a DRAM tier big enough to
    // never spill; peak resident bytes is the minimum memory needed to
    // train.
    const auto result = run({.spec = spec,
                             .dram = 1600 * util::MiB,
                             .nvram = 64 * util::MiB,
                             .iterations = 1});
    const auto& m = result.steady();
    rows.push_back({klass, spec.name, std::to_string(spec.batch),
                    mib(m.peak_resident_bytes) + " MiB",
                    std::to_string(result.parameters / 1000) + "k",
                    std::to_string(m.kernel_launches)});
  }
  std::fputs(util::render_table(rows).c_str(), stdout);
  maybe_write_csv(dir, "table3_models.csv", rows);
}

// Fig. 2: steady-state iteration time of the large networks by mode, and
// the best CachedArrays mode's speedup over 2LM:0 (paper: 1.4x - 2.03x).
void fig2(const char* dir) {
  print_header("Figure 2",
               "Average execution time of a single training iteration for "
               "the large networks,\nby operating mode.  Expected shape: "
               "2LM:M < 2LM:0; CA:0 slower than 2LM:M (for VGG\nslower even "
               "than 2LM:0); CA:L < CA:0; CA:LM best overall; prefetching "
               "(LMP) hurts\nDenseNet/ResNet but helps VGG.");
  std::vector<std::string> header = {"model"};
  for (const Mode mode : kModes) header.emplace_back(to_string(mode));
  header.emplace_back("speedup(best CA vs 2LM:0)");
  Rows rows = {header};
  for (const auto& spec :
       {ModelSpec::densenet264_large(), ModelSpec::resnet200_large(),
        ModelSpec::vgg416_large()}) {
    std::vector<std::string> line = {spec.name};
    double two_lm_base = 0.0;
    double best_ca = 1e300;
    for (const Mode mode : kModes) {
      const auto& iterations = large(spec, mode).iterations;
      // Average the steady-state iterations (all but the first).
      double avg = 0.0;
      for (std::size_t i = 1; i < iterations.size(); ++i) {
        avg += iterations[i].seconds;
      }
      avg /= static_cast<double>(iterations.size() - 1);
      line.push_back(util::format_fixed(avg, 1) + "s");
      if (mode == Mode::kTwoLmNone) two_lm_base = avg;
      if (!dnn::is_two_lm(mode)) best_ca = std::min(best_ca, avg);
    }
    line.push_back(util::format_fixed(two_lm_base / best_ca, 2) + "x");
    rows.push_back(line);
  }
  std::fputs(util::render_table(rows).c_str(), stdout);
  maybe_write_csv(dir, "fig2_large_runtime.csv", rows);
}

// Fig. 3: resident heap memory over simulated time through ResNet 200's
// steady-state second iteration (time axis re-zeroed), 2LM:0 vs 2LM:M.
telemetry::TimeSeries second_iteration(Mode mode) {
  const auto& cell = large(ModelSpec::resnet200_large(), mode);
  const auto& samples = cell.occupancy.samples();
  telemetry::TimeSeries series(std::string("resident[") + to_string(mode) +
                               "]");
  const double t0 = samples[cell.iteration_ends[0]].t;
  for (std::size_t i = cell.iteration_ends[0]; i < cell.iteration_ends[1];
       ++i) {
    series.record(samples[i].t - t0, samples[i].value);
  }
  return series;
}

void print_series(const telemetry::TimeSeries& series) {
  std::printf("%s  (peak %s MiB)\n", series.name().c_str(),
              mib(static_cast<std::uint64_t>(series.max_value())).c_str());
  const double peak = series.max_value();
  for (const auto& s : series.downsample(24)) {
    const int bar = static_cast<int>(56.0 * s.value / peak);
    std::printf("  t=%7.1fs %7s MiB |%s\n", s.t,
                mib(static_cast<std::uint64_t>(s.value)).c_str(),
                std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
  std::printf("\n");
}

void fig3(const char* dir) {
  print_header("Figure 3",
               "Resident heap memory through one iteration of ResNet "
               "training under 2LM.\nExpected: 2LM:0 grows until the GC "
               "runs late in the iteration; 2LM:M frees\nproactively on the "
               "backward pass and peaks much lower.");
  const auto none = second_iteration(Mode::kTwoLmNone);
  const auto m = second_iteration(Mode::kTwoLmM);
  print_series(none);
  print_series(m);
  std::printf("peak ratio 2LM:0 / 2LM:M = %.2fx\n",
              none.max_value() / m.max_value());
  Rows rows = {{"series", "t (s)", "resident (bytes)"}};
  for (const auto* series : {&none, &m}) {
    for (const auto& s : series->samples()) {
      rows.push_back(
          {series->name(), util::format_fixed(s.t, 6),
           std::to_string(static_cast<std::uint64_t>(s.value))});
    }
  }
  maybe_write_csv(dir, "fig3_heap_occupancy.csv", rows);
}

// Fig. 4: DRAM-cache tag statistics of ResNet 200, 2LM:0 vs 2LM:M.  Semantic
// freeing improves even the hardware cache: freed physical pages are reused
// while their blocks are still cached.
void fig4(const char* dir) {
  print_header("Figure 4",
               "DRAM cache tag statistics for a single training iteration "
               "of ResNet 200.\nExpected: 2LM:M has a higher hit rate and a "
               "lower dirty-miss rate than 2LM:0.");
  const Mode modes[2] = {Mode::kTwoLmNone, Mode::kTwoLmM};
  twolm::CacheStats stats[2];
  Rows rows = {
      {"mode", "hit rate", "clean miss", "dirty miss", "block accesses"}};
  const auto percent = [](double rate) {
    return util::format_fixed(100.0 * rate, 1) + "%";
  };
  for (int i = 0; i < 2; ++i) {
    stats[i] = large(ModelSpec::resnet200_large(), modes[i]).steady().cache;
    rows.push_back({to_string(modes[i]), percent(stats[i].hit_rate()),
                    percent(stats[i].clean_miss_rate()),
                    percent(stats[i].dirty_miss_rate()),
                    std::to_string(stats[i].accesses)});
  }
  std::fputs(util::render_table(rows).c_str(), stdout);
  maybe_write_csv(dir, "fig4_cache_stats.csv", rows);
  std::printf(
      "\nhit-rate improvement (M vs 0): +%.1f%% relative (paper: +18%%)\n",
      100.0 * (stats[1].hit_rate() / stats[0].hit_rate() - 1.0));
  std::printf(
      "dirty-miss reduction (M vs 0): -%.1f%% relative (paper: -50%%)\n",
      100.0 * (1.0 - stats[1].dirty_miss_rate() / stats[0].dirty_miss_rate()));
}

// Fig. 5: DRAM and NVRAM read/write traffic for one training iteration of
// the large networks, across all operating modes.
//
// Expected shapes (paper §V):
//   * CA:0 generates traffic comparable to 2LM:0 but with fewer NVRAM
//     writes (the GC still runs between iterations);
//   * local allocation (L) removes the compulsory NVRAM->DRAM copy:
//     NVRAM reads and DRAM writes drop sharply;
//   * memory optimizations (M) collapse NVRAM writes (DenseNet: ~1100 ->
//     ~350 in the paper) and flip NVRAM reads above writes;
//   * prefetching (P) trades NVRAM reads for DRAM reads.
void fig5(const char* dir) {
  print_header("Figure 5",
               "Data moved (MiB) during a single training iteration, per "
               "device and direction.");
  for (const auto& spec :
       {ModelSpec::densenet264_large(), ModelSpec::resnet200_large(),
        ModelSpec::vgg416_large()}) {
    std::printf("--- %s ---\n", spec.name.c_str());
    Rows rows = {
        {"mode", "DRAM read", "DRAM write", "NVRAM read", "NVRAM write"}};
    for (const Mode mode : kModes) {
      const auto& m = large(spec, mode).steady();
      rows.push_back({to_string(mode), mib(m.dram.bytes_read),
                      mib(m.dram.bytes_written), mib(m.nvram.bytes_read),
                      mib(m.nvram.bytes_written)});
    }
    std::fputs(util::render_table(rows).c_str(), stdout);
    maybe_write_csv(dir, ("fig5_" + spec.name + ".csv").c_str(), rows);
    const auto& ca_l = large(spec, Mode::kCaL).steady().nvram;
    const auto& ca_lm = large(spec, Mode::kCaLM).steady().nvram;
    std::printf(
        "NVRAM writes, CA:L -> CA:LM: %s -> %s MiB; reads exceed writes "
        "under LM: %s\n\n",
        mib(ca_l.bytes_written).c_str(), mib(ca_lm.bytes_written).c_str(),
        ca_lm.bytes_read > ca_lm.bytes_written ? "yes" : "no");
  }
}

// Fig. 6: average DRAM bus utilization over a training iteration for
// ResNet 200 and VGG 416.
//
// Expected shape (paper §V-b): as CachedArrays optimizations are applied,
// bus utilization rises while total traffic falls -- the optimized modes
// both move less data and move it at higher achieved bandwidth.  For VGG
// (small transfers) unoptimized CachedArrays achieves *lower* utilization
// than the hardware cache; for ResNet the comparison flips.
void fig6(const char* dir) {
  print_header("Figure 6",
               "Average DRAM bus utilization (achieved DRAM traffic over "
               "peak bandwidth x time).");
  for (const auto& spec :
       {ModelSpec::resnet200_large(), ModelSpec::vgg416_large()}) {
    std::printf("--- %s ---\n", spec.name.c_str());
    Rows rows = {{"mode", "avg DRAM bus utilization", "total traffic (MiB)"}};
    for (const Mode mode : kModes) {
      const auto& m = large(spec, mode).steady();
      const int bar = static_cast<int>(60.0 * m.dram_bus_utilization);
      rows.push_back(
          {to_string(mode),
           util::format_fixed(100.0 * m.dram_bus_utilization, 1) + "%  " +
               std::string(static_cast<std::size_t>(bar), '#'),
           mib(m.dram.total() + m.nvram.total())});
    }
    std::fputs(util::render_table(rows).c_str(), stdout);
    maybe_write_csv(dir, ("fig6_" + spec.name + ".csv").c_str(), rows);
    std::printf("\n");
  }
}

// Fig. 7: runtime of one training iteration for the small networks as the
// DRAM budget shrinks from 180 MiB (everything fits) to 0 (NVRAM only),
// in CA:LM mode.  Two series per network: measured wall clock, and the
// projection with perfectly asynchronous data movement (wall clock minus
// synchronous movement time).
//
// Expected shapes (paper §V-c/d):
//   * NVRAM-only is a 3-4x penalty (kernels write NVRAM with regular
//     stores; only the copy engine has the non-temporal fast path);
//   * the async projection is nearly flat for DenseNet/ResNet but still
//     degrades for VGG (its kernels are read-bandwidth sensitive);
//   * even a modest DRAM budget recovers most of the lost performance.
void fig7(const char* dir) {
  print_header("Figure 7",
               "Small-network iteration time vs DRAM budget (CA:LM; 0 = "
               "NVRAM only).\n'async' projects perfectly overlapped data "
               "movement (time minus synchronous movement).");
  for (const auto& spec :
       {ModelSpec::densenet264_small(), ModelSpec::resnet200_small(),
        ModelSpec::vgg116_small()}) {
    std::printf("--- %s (small) ---\n", spec.name.c_str());
    Rows rows = {{"DRAM (MiB)", "wall clock", "async projection",
                  "NVRAM read", "NVRAM write"}};
    double nvram_only = 0.0;
    double full_dram = 0.0;
    for (const std::size_t budget : {0u, 18u, 36u, 72u, 108u, 144u, 180u}) {
      const auto m =
          run({.spec = spec,
               .mode = budget == 0 ? Mode::kNvramOnly : Mode::kCaLM,
               .dram = budget * util::MiB})
              .steady();
      rows.push_back({std::to_string(budget),
                      util::format_fixed(m.seconds, 1) + "s",
                      util::format_fixed(m.seconds - m.movement_seconds, 1) +
                          "s",
                      mib(m.nvram.bytes_read), mib(m.nvram.bytes_written)});
      if (budget == 0) nvram_only = m.seconds;
      if (budget == 180) full_dram = m.seconds;
    }
    std::fputs(util::render_table(rows).c_str(), stdout);
    maybe_write_csv(dir, ("fig7_" + spec.name + ".csv").c_str(), rows);
    std::printf("NVRAM-only penalty vs full DRAM: %.1fx (paper: 3-4x)\n\n",
                nvram_only / full_dram);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using Renderer = void (*)(const char*);
  const std::pair<const char*, Renderer> renderers[] = {
      {"table3", table3}, {"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4},
      {"fig5", fig5},     {"fig6", fig6}, {"fig7", fig7}};
  std::vector<Renderer> picked;
  const char* dir = nullptr;
  for (int i = 1; i < argc; ++i) {
    const auto* it = std::find_if(
        std::begin(renderers), std::end(renderers),
        [&](const auto& r) { return std::strcmp(r.first, argv[i]) == 0; });
    if (it != std::end(renderers)) {
      picked.push_back(it->second);
    } else if (std::filesystem::is_directory(argv[i])) {
      dir = argv[i];
    } else {
      std::fputs("usage: paper [table3|fig2|fig3|fig4|fig5|fig6|fig7]... "
                 "[output dir]\n", stderr);
      return 2;
    }
  }
  if (picked.empty()) {
    for (const auto& [name, render] : renderers) picked.push_back(render);
  }
  for (const Renderer render : picked) render(dir);
  return 0;
}
