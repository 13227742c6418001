// Training loop with per-iteration metric capture (paper §IV-A): random
// normal input, forward + backward + SGD, GC after every iteration, heap
// defragmentation between iterations, and deltas of every counter the
// figures plot.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dnn/harness.hpp"
#include "dnn/models.hpp"
#include "telemetry/trace.hpp"

namespace ca::dnn {

struct IterationMetrics {
  double seconds = 0.0;  ///< simulated wall time of the iteration
  double compute_seconds = 0.0;
  double movement_seconds = 0.0;  ///< synchronous data movement
  double gc_seconds = 0.0;
  float loss = 0.0f;  ///< mean loss (real backend only)

  telemetry::DeviceTraffic dram;   ///< traffic delta over the iteration
  telemetry::DeviceTraffic nvram;

  twolm::CacheStats cache;  ///< tag statistics delta (2LM modes)

  std::size_t peak_resident_bytes = 0;

  /// Average DRAM bus utilization: achieved DRAM traffic over the
  /// iteration divided by peak DRAM bandwidth times elapsed time (Fig. 6).
  double dram_bus_utilization = 0.0;

  // Asynchronous-mover deltas over the iteration (zero without async
  // movement).
  std::uint64_t async_transfers = 0;     ///< copyto_async calls
  double async_stall_seconds = 0.0;      ///< time stalled in wait_ready
  double async_overlap_seconds = 0.0;    ///< modeled movement hidden
  std::size_t async_inflight_peak = 0;   ///< registry high-water mark

  /// Host kernel-timing deltas (wall seconds; real backends only, zero
  /// under kSim).  kernels.gemm_gflops() is the iteration's achieved GEMM
  /// rate.
  telemetry::KernelCounters kernels;

  /// Kernel launches over the iteration: the delta of EngineStats::kernels.
  std::uint64_t kernel_launches = 0;
};

struct TrainerOptions {
  float lr = 0.01f;
  std::uint64_t seed = 1234;

  /// Sample (time, resident bytes) after every kernel into this series
  /// (Fig. 3).  Optional.
  telemetry::TimeSeries* occupancy = nullptr;
};

class Trainer {
 public:
  Trainer(Harness& harness, Model& model, TrainerOptions options = {});
  ~Trainer();

  /// One full training iteration (forward + backward + update + GC +
  /// defragmentation), returning the metric deltas.
  IterationMetrics run_iteration();

  [[nodiscard]] std::size_t iterations_run() const noexcept { return iter_; }

 private:
  Harness* harness_;
  Model* model_;
  TrainerOptions options_;
  std::size_t iter_ = 0;
  std::size_t peak_resident_ = 0;
};

}  // namespace ca::dnn
