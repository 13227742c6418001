// Memory inspector: observability tooling over the CachedArrays runtime.
//
// Runs a pressured training workload and prints, per iteration, the view an
// operator would want: tier occupancy, fragmentation, policy activity, GC
// behaviour, traffic and the simulated-time breakdown -- then dumps a heap
// map of the fast tier.
//
// Build & run:  ./build/examples/memory_inspector
#include <cstdio>

#include "dnn/models.hpp"
#include "dnn/trainer.hpp"
#include "policy/lru_policy.hpp"
#include "util/format.hpp"

using namespace ca;
using namespace ca::dnn;

namespace {

void heap_map(core::Runtime& rt, sim::DeviceId dev) {
  // One character per 1/64th of the heap: '#' allocated, '.' free.
  const auto stats = rt.manager().device_stats(dev).alloc;
  std::string map(64, '.');
  // Reconstruct from region listing via the allocator is internal; use the
  // occupancy fraction per bucket through public queries: we approximate
  // with overall occupancy here and mark the fraction.
  const double frac = static_cast<double>(stats.allocated_bytes) /
                      static_cast<double>(stats.capacity);
  for (std::size_t i = 0; i < static_cast<std::size_t>(frac * 64.0); ++i) {
    map[i] = '#';
  }
  std::printf("  %-6s [%s] %s / %s, frag %.0f%%, %zu regions\n",
              sim::to_string(rt.platform().spec(dev).kind), map.c_str(),
              util::format_bytes(stats.allocated_bytes).c_str(),
              util::format_bytes(stats.capacity).c_str(),
              100.0 * stats.fragmentation(), stats.allocated_blocks);
}

}  // namespace

int main() {
  ModelSpec spec;
  spec.family = ModelSpec::Family::kDenseNet;
  spec.name = "DenseNet probe";
  spec.stages = {4, 4};
  spec.growth = 8;
  spec.batch = 12;
  spec.image = 16;
  spec.classes = 10;
  spec.base_channels = 16;

  HarnessConfig hc;
  hc.mode = Mode::kCaLM;
  hc.dram_bytes = 2 * util::MiB;
  hc.nvram_bytes = 64 * util::MiB;
  hc.backend = Backend::kSim;
  Harness harness(hc);
  auto model = build_model(harness.engine(), spec);

  telemetry::TimeSeries occupancy("resident");
  TrainerOptions opts;
  opts.occupancy = &occupancy;
  Trainer trainer(harness, *model, opts);

  std::printf("== Memory inspector: %s under a %s DRAM tier ==\n\n",
              spec.name.c_str(),
              util::format_bytes(hc.dram_bytes).c_str());

  auto& rt = harness.runtime();
  auto& lru = static_cast<policy::LruPolicy&>(rt.policy());
  policy::LruPolicy::Stats prev_ops;

  for (int iter = 0; iter < 3; ++iter) {
    const auto m = trainer.run_iteration();
    const auto ops = lru.op_stats();
    std::printf("iteration %d: %.3fs simulated "
                "(compute %.3fs, movement %.3fs, gc %.3fs)\n",
                iter, m.seconds, m.compute_seconds, m.movement_seconds,
                m.gc_seconds);
    std::printf("  traffic   DRAM r/w %s / %s, NVRAM r/w %s / %s\n",
                util::format_bytes(m.dram.bytes_read).c_str(),
                util::format_bytes(m.dram.bytes_written).c_str(),
                util::format_bytes(m.nvram.bytes_read).c_str(),
                util::format_bytes(m.nvram.bytes_written).c_str());
    std::printf("  policy    %llu evictions, %llu prefetches, %llu elided "
                "writebacks, %llu forced reclaims\n",
                (unsigned long long)(ops.evictions - prev_ops.evictions),
                (unsigned long long)(ops.prefetches - prev_ops.prefetches),
                (unsigned long long)(ops.elided_writebacks -
                                     prev_ops.elided_writebacks),
                (unsigned long long)(ops.forced_reclaims -
                                     prev_ops.forced_reclaims));
    std::printf("  residency peak %s, %zu objects in fast memory\n",
                util::format_bytes(m.peak_resident_bytes).c_str(),
                lru.fast_resident_objects());
    heap_map(rt, sim::kFast);
    heap_map(rt, sim::kSlow);
    prev_ops = ops;
  }

  std::printf("\nGC: %llu collections, %llu objects, %s reclaimed\n",
              (unsigned long long)rt.gc_stats().collections,
              (unsigned long long)rt.gc_stats().objects_collected,
              util::format_bytes(rt.gc_stats().bytes_collected).c_str());

  std::printf("\nresident-bytes trace (downsampled):\n");
  const double peak = occupancy.max_value();
  for (const auto& s : occupancy.downsample(12)) {
    const int bar = static_cast<int>(48.0 * s.value / peak);
    std::printf("  t=%7.3fs %8s |%s\n", s.t,
                util::format_bytes(static_cast<std::size_t>(s.value)).c_str(),
                std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
  return 0;
}
