#include "workloads.hpp"

#include <algorithm>

#include "util/align.hpp"

namespace perfbench {

using ca::dnn::HarnessConfig;
using ca::dnn::Mode;
using ca::dnn::ModelSpec;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "resnet200-2lm", "resnet200-ca-lm", "vgg416-ca-lmp-async",
      "resnet-small-real"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name, bool smoke,
                                      std::size_t real_threads) {
  Workload w;
  w.name = name;
  HarnessConfig& hc = w.config;
  hc.backend = ca::dnn::Backend::kSim;
  if (name == "resnet200-2lm") {
    w.spec = smoke ? ModelSpec::resnet_tiny() : ModelSpec::resnet200_large();
    hc.mode = Mode::kTwoLmNone;
    w.nominal_iter_s = 0.37;
    w.reference_sim_s = smoke ? 0.0 : 378.2;
  } else if (name == "resnet200-ca-lm") {
    w.spec = smoke ? ModelSpec::resnet_tiny() : ModelSpec::resnet200_large();
    hc.mode = Mode::kCaLM;
    w.nominal_iter_s = 0.075;
    w.reference_sim_s = smoke ? 0.0 : 191.8;
  } else if (name == "vgg416-ca-lmp-async") {
    // The `multi-channel` cell of bench/ablation_async.
    w.spec = smoke ? ModelSpec::vgg_tiny() : ModelSpec::vgg416_large();
    hc.mode = Mode::kCaLMP;
    hc.async_movement = true;
    hc.mover_channels = 4;
    hc.prefetch_distance = 2;
    w.nominal_iter_s = 0.29;
  } else if (name == "resnet-small-real") {
    if (smoke) {
      w.spec = ModelSpec::resnet_tiny();
    } else {
      w.spec.family = ModelSpec::Family::kResNet;
      w.spec.name = "ResNet small";
      w.spec.stages = {2, 2, 2};
      w.spec.batch = 32;
      w.spec.image = 32;
      w.spec.base_channels = 16;
      w.spec.classes = 10;
    }
    hc.mode = Mode::kCaLM;
    hc.backend = ca::dnn::Backend::kReal;
    hc.dram_bytes = 128 * ca::util::MiB;
    hc.nvram_bytes = 256 * ca::util::MiB;
    hc.kernel_threads = std::max<std::size_t>(1, real_threads);
    w.nominal_iter_s = 0.094;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    hc.dram_bytes = 8 * ca::util::MiB;
    hc.nvram_bytes = 96 * ca::util::MiB;
  }
  hc.compute_efficiency = w.spec.compute_efficiency;
  hc.conv_read_passes = w.spec.conv_read_passes;
  return w;
}

// --- TracedSystem: dnn::Harness's wiring, decorated --------------------------

namespace {

/// Modes with the memory optimization M (eager retire).
bool eager(Mode mode) {
  return mode == Mode::kTwoLmM || mode == Mode::kCaLM ||
         mode == Mode::kCaLMP || mode == Mode::kNvramOnly;
}

ca::core::Runtime::PolicyFactory policy_factory(const HarnessConfig& config) {
  const bool eager_retire = eager(config.mode);
  switch (config.mode) {
    case Mode::kTwoLmNone:
    case Mode::kTwoLmM:
    case Mode::kNvramOnly:
      return [eager_retire](ca::dm::DataManager& dm) {
        return std::make_unique<ca::policy::PinnedDevicePolicy>(
            dm, ca::sim::kSlow, eager_retire);
      };
    case Mode::kCaNone:
    case Mode::kCaL:
    case Mode::kCaLM:
    case Mode::kCaLMP:
      break;
  }
  ca::policy::LruPolicyConfig cfg;
  cfg.local_alloc = config.mode != Mode::kCaNone;
  cfg.eager_retire = eager_retire;
  cfg.prefetch = config.mode == Mode::kCaLMP;
  cfg.min_migratable = config.min_migratable;
  cfg.async_prefetch = config.async_movement;
  cfg.async_writeback = config.async_movement;
  if (config.async_movement) cfg.prefetch_distance = config.prefetch_distance;
  return [cfg](ca::dm::DataManager& dm) {
    return std::make_unique<ca::policy::LruPolicy>(dm, cfg);
  };
}

}  // namespace

TracedSystem::TracedSystem(const HarnessConfig& config, Tracer& tracer) {
  const std::size_t dram_arena =
      std::max<std::size_t>(config.dram_bytes, 64 * ca::util::KiB);
  ca::sim::Platform platform =
      ca::sim::Platform::cascade_lake_scaled(dram_arena, config.nvram_bytes);
  platform.mover_channels = std::max<std::size_t>(1, config.mover_channels);

  auto inner = policy_factory(config);
  rt_ = std::make_unique<ca::core::Runtime>(
      std::move(platform), [&inner, &tracer](ca::dm::DataManager& dm) {
        return std::make_unique<TimedPolicy>(inner(dm), tracer);
      });

  std::unique_ptr<ca::dnn::ExecContext> ctx;
  SpanName charge = SpanName::kExecChargeMemory;
  if (ca::dnn::is_two_lm(config.mode)) {
    ca::twolm::CacheConfig cc;
    cc.capacity = config.dram_bytes;
    cc.kernel_threads = config.kernel_threads;
    cache_ = std::make_unique<ca::twolm::DirectMappedCache>(
        cc, rt_->platform(), rt_->counters());
    ctx = std::make_unique<ca::dnn::TwoLmExecContext>(*rt_, *cache_,
                                                      config.kernel_threads);
    charge = SpanName::kTwoLmChargeMemory;
  } else {
    ctx = std::make_unique<ca::dnn::CaExecContext>(*rt_,
                                                   config.kernel_threads);
  }
  ctx_ = std::make_unique<TimedExecContext>(std::move(ctx),
                                            config.kernel_threads, tracer,
                                            charge);

  ca::dnn::EngineConfig ec;
  ec.backend = config.backend;
  ec.issue_archive = true;
  ec.issue_retire = eager(config.mode);
  ec.flop_rate = config.flop_rate;
  ec.compute_efficiency = config.compute_efficiency;
  ec.conv_read_passes = config.conv_read_passes;
  ec.kernel_threads = config.kernel_threads;
  engine_ = std::make_unique<ca::dnn::Engine>(*rt_, *ctx_, ec);
}

// --- TracedTrainer: Trainer::run_iteration's calls, in spans -----------------

namespace {

/// Counter state the traced run differences across one iteration.
struct Snapshot {
  double now = 0.0;
  double compute = 0.0;
  double movement = 0.0;
  double gc = 0.0;
  ca::telemetry::DeviceTraffic dram;
  ca::telemetry::DeviceTraffic nvram;
  ca::twolm::CacheStats cache;
  ca::dm::DataManager::AsyncStats async;
  ca::telemetry::KernelCounters kernels;
  ca::mem::CopyEngine::Stats copies;
  ca::core::GcStats gc_stats;
  std::uint64_t allocations = 0;

  static Snapshot take(TracedSystem& sys) {
    auto& rt = sys.runtime();
    Snapshot s;
    s.now = rt.clock().now();
    s.compute = rt.clock().spent(ca::sim::TimeCategory::kCompute);
    s.movement = rt.clock().spent(ca::sim::TimeCategory::kMovement);
    s.gc = rt.clock().spent(ca::sim::TimeCategory::kGc);
    s.dram = rt.counters().device(ca::sim::kFast);
    s.nvram = rt.counters().device(ca::sim::kSlow);
    if (sys.cache() != nullptr) s.cache = sys.cache()->stats();
    s.async = rt.manager().async_stats();
    s.kernels = sys.engine().stats().kernel_counters;
    s.copies = rt.manager().engine().stats();
    s.gc_stats = rt.gc_stats();
    s.allocations = rt.manager().tenant_stats(ca::dm::TenantId{}).allocations;
    return s;
  }
};

}  // namespace

TracedTrainer::TracedTrainer(TracedSystem& system, ca::dnn::Model& model,
                             ca::dnn::TrainerOptions options, Tracer& tracer)
    : system_(system), model_(model), options_(options), tracer_(tracer) {
  system_.engine().set_kernel_hook([this] { tracer_.on_kernel_done(); });
}

TracedTrainer::~TracedTrainer() { system_.engine().set_kernel_hook(nullptr); }

ca::dnn::IterationMetrics TracedTrainer::run_iteration(LayerDelta& layers) {
  auto& engine = system_.engine();
  auto& rt = system_.runtime();
  tracer_.begin_iteration(iter_);
  const Snapshot s0 = Snapshot::take(system_);

  ca::dnn::IterationMetrics m;
  {
    ScopedSpan iteration(tracer_, SpanName::kIteration);
    {
      // Declared in Trainer's order so the handles drop in the same order.
      ca::dnn::Tensor input;
      ca::dnn::Tensor labels;
      ca::dnn::Tensor logits;
      {
        ScopedSpan span(tracer_, SpanName::kForward);
        const std::uint64_t seed = options_.seed + 31 * iter_;
        input = engine.tensor(model_.input_shape(), "input");
        engine.fill_normal(input, 1.0f, seed);
        labels = engine.tensor({model_.spec().batch}, "labels");
        engine.fill_labels(labels, model_.spec().classes, seed ^ 0x5555);
        logits = model_.forward(engine, input);
        m.loss = engine.softmax_ce_loss(logits, labels);
      }
      {
        ScopedSpan span(tracer_, SpanName::kBackward);
        engine.backward();
      }
      {
        ScopedSpan span(tracer_, SpanName::kSgdStep);
        engine.sgd_step(options_.lr);
      }
    }  // input/labels/logits handles drop here; end_iteration collects them
    // Defragmentation gives every heap a fresh allocator, so its counters
    // cover exactly this iteration's allocations until end_iteration.
    const ca::sim::DeviceId devices[2] = {ca::sim::kFast, ca::sim::kSlow};
    for (std::size_t d = 0; d < 2; ++d) {
      const auto c = rt.manager().device_stats(devices[d]).alloc;
      layers.bin_exact[d] = c.bin_exact_hits;
      layers.bin_spill[d] = c.bin_spill_allocs;
    }
    {
      ScopedSpan span(tracer_, SpanName::kEndIteration);
      engine.end_iteration();
    }
    {
      ScopedSpan span(tracer_, SpanName::kDrainTransfers);
      rt.manager().drain_transfers();
    }
  }

  const Snapshot s1 = Snapshot::take(system_);
  m.seconds = s1.now - s0.now;
  m.compute_seconds = s1.compute - s0.compute;
  m.movement_seconds = s1.movement - s0.movement;
  m.gc_seconds = s1.gc - s0.gc;
  m.dram = rt.counters().delta(ca::sim::kFast, s0.dram);
  m.nvram = rt.counters().delta(ca::sim::kSlow, s0.nvram);
  m.cache.accesses = s1.cache.accesses - s0.cache.accesses;
  m.cache.hits = s1.cache.hits - s0.cache.hits;
  m.cache.clean_misses = s1.cache.clean_misses - s0.cache.clean_misses;
  m.cache.dirty_misses = s1.cache.dirty_misses - s0.cache.dirty_misses;
  m.async_transfers = s1.async.scheduled - s0.async.scheduled;
  m.async_stall_seconds = s1.async.stall_seconds - s0.async.stall_seconds;
  m.async_overlap_seconds =
      s1.async.overlap_seconds - s0.async.overlap_seconds;
  m.async_inflight_peak = s1.async.inflight_peak;
  m.kernels = s1.kernels.delta(s0.kernels);

  layers.copies = s1.copies.copies - s0.copies.copies;
  layers.copy_bytes = s1.copies.bytes - s0.copies.bytes;
  layers.async_bytes = s1.copies.async_bytes - s0.copies.async_bytes;
  layers.allocations = s1.allocations - s0.allocations;
  layers.gc_collections = s1.gc_stats.collections - s0.gc_stats.collections;
  layers.gc_pressure_triggers =
      s1.gc_stats.pressure_triggers - s0.gc_stats.pressure_triggers;
  ++iter_;
  return m;
}

}  // namespace perfbench
