// The benchmark's workloads and the two ways it runs them.
//
// Untraced: dnn::Harness + dnn::Trainer, exactly as the paper benches do.
// Traced: TracedSystem assembles the same system as dnn::Harness from the
// public pieces (Runtime, DirectMappedCache, ExecContext, Engine) with the
// timing decorators of tracing.hpp spliced in, and TracedTrainer drives an
// iteration through the same public calls as Trainer::run_iteration.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dnn/models.hpp"
#include "dnn/trainer.hpp"
#include "tracing.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  ca::dnn::ModelSpec spec;
  ca::dnn::HarnessConfig config;
  /// Host seconds of one steady iteration on the reference machine (see
  /// README.md).  --seconds divided by this fixes the steady iteration
  /// count, so every commit measures the same work.
  double nominal_iter_s = 0.0;
  /// Steady-iteration simulated seconds recorded in EXPERIMENTS.md for
  /// this configuration (0 = none).  Printed for information only.
  double reference_sim_s = 0.0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload, or nullopt.  `smoke` swaps in the *_tiny model
/// preset and small heaps; `real_threads` is the kernel pool size of the
/// kReal workload.
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    bool smoke,
                                                    std::size_t real_threads);

/// Per-iteration counters of the layers below the trainer, beyond what
/// IterationMetrics carries.  Traced run only.
struct LayerDelta {
  std::uint64_t copies = 0;       ///< synchronous copy-engine copies
  std::uint64_t copy_bytes = 0;   ///< bytes moved synchronously
  std::uint64_t async_bytes = 0;  ///< bytes moved on the mover channels
  std::uint64_t allocations = 0;  ///< DataManager region allocations
  std::uint64_t gc_collections = 0;
  std::uint64_t gc_pressure_triggers = 0;
  std::uint64_t bin_exact[2] = {0, 0};  ///< per device: dram, nvram
  std::uint64_t bin_spill[2] = {0, 0};
};

class TracedSystem {
 public:
  TracedSystem(const ca::dnn::HarnessConfig& config, Tracer& tracer);

  [[nodiscard]] ca::core::Runtime& runtime() noexcept { return *rt_; }
  [[nodiscard]] ca::dnn::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] ca::twolm::DirectMappedCache* cache() noexcept {
    return cache_.get();
  }

 private:
  std::unique_ptr<ca::core::Runtime> rt_;
  std::unique_ptr<ca::twolm::DirectMappedCache> cache_;
  std::unique_ptr<ca::dnn::ExecContext> ctx_;
  std::unique_ptr<ca::dnn::Engine> engine_;
};

class TracedTrainer {
 public:
  TracedTrainer(TracedSystem& system, ca::dnn::Model& model,
                ca::dnn::TrainerOptions options, Tracer& tracer);
  ~TracedTrainer();
  TracedTrainer(const TracedTrainer&) = delete;
  TracedTrainer& operator=(const TracedTrainer&) = delete;

  /// One iteration inside an `iteration` span.  Fills the simulated
  /// fields of IterationMetrics the same way Trainer::run_iteration does.
  ca::dnn::IterationMetrics run_iteration(LayerDelta& layers);

 private:
  TracedSystem& system_;
  ca::dnn::Model& model_;
  ca::dnn::TrainerOptions options_;
  Tracer& tracer_;
  std::uint32_t iter_ = 0;
};

}  // namespace perfbench
