// Multi-tenant DataManager under the schedule explorer: K tenants share
// one manager from their own threads, exercising the fine-grained lock
// domains (objects_mu_ / heap_mu_ / tenants_mu_ / inflight_mu_)
// concurrently.  The sanctioned paths must come back clean across
// hundreds of interleavings; two injected cross-tenant hazards -- an
// eviction that skips the tenant-isolation check and a defragment run
// concurrently with another tenant's data traffic -- must be flagged in
// EVERY explored schedule (>= 1000 distinct), and the fixed paths on the
// same shapes must stay clean.
#include <gtest/gtest.h>

#if !defined(CA_RACE)

TEST(MultitenantRace, InstrumentationRequired) {
  GTEST_SKIP() << "CA_RACE instrumentation not compiled in; configure with "
                  "-DCA_RACE=ON to run the multi-tenant race scenarios";
}

#else  // CA_RACE

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "audit_clean.hpp"
#include "dm/data_manager.hpp"
#include "race/access.hpp"
#include "race/explorer.hpp"
#include "race_test_peer.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"

namespace ca {
namespace {

/// One worker per pool so the explored task set is host-independent
/// (matches tests/race/race_hazard_test.cpp).
sim::Platform tiny_platform() {
  sim::Platform platform =
      sim::Platform::cascade_lake_scaled(1 * util::MiB, 4 * util::MiB);
  platform.copy_threads = 1;
  platform.mover_channels = 1;
  return platform;
}

/// Touch `bytes` of `p` as instrumented writes, in a few strides so the
/// scheduler has preemption points inside the owner's data traffic.
void owner_writes(std::byte* p, std::size_t bytes, const char* label) {
  const std::size_t stride = bytes / 4;
  for (std::size_t off = 0; off < bytes; off += stride) {
    const std::size_t n = std::min(stride, bytes - off);
    CA_RACE_WRITE(p + off, n, label);
    std::memset(p + off, 0x5A, n);
  }
}

/// Sanctioned concurrency: two registered tenants run metadata + data
/// traffic against the shared manager from their own threads while the
/// root (default tenant) allocates, self-evicts and frees.  Disjoint
/// bytes, lock-protected tables, atomic accounting: no race to find.
void concurrent_tenants_scenario() {
  const sim::Platform platform = tiny_platform();
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm(platform, clock, counters);
  const dm::TenantId t1 = dm.register_tenant("trainer-1");
  const dm::TenantId t2 = dm.register_tenant("trainer-2");

  const std::size_t mark = sync::adoption_mark();
  std::vector<std::thread> threads;
  std::vector<sync::spawn_token> tokens;
  for (const dm::TenantId t : {t1, t2}) {
    const sync::spawn_token token = sync::before_spawn();
    tokens.push_back(token);
    threads.emplace_back([&dm, t, token] {
      sync::task_scope scope(token);
      dm::Region* slow = dm.allocate(sim::kSlow, 64 * util::KiB, t);
      ASSERT_NE(slow, nullptr);
      owner_writes(slow->data(), slow->size(), "tenant-owner-write");
      dm::Region* fast = dm.allocate(sim::kFast, 64 * util::KiB, t);
      ASSERT_NE(fast, nullptr);
      dm.copyto(*fast, *slow);
      dm.free(fast);
      dm.free(slow);
    });
  }
  sync::await_adoptions(mark + 2);

  // The root tenant contends on the same lock domains: allocations, a
  // self-only eviction pass over the fast tier, accounting reads.
  dm::Region* mine = dm.allocate(sim::kFast, 64 * util::KiB);
  ASSERT_NE(mine, nullptr);
  (void)dm.evictfrom(
      sim::kFast, 0, 64 * util::KiB,
      [&](dm::Region& r) {
        dm.free(&r);
        mine = nullptr;
        return true;
      },
      dm::TenantId{});
  if (mine != nullptr) dm.free(mine);
  (void)dm.tenant_stats(t1);
  (void)dm.async_stats();

  for (std::size_t i = 0; i < threads.size(); ++i) {
    sync::join_thread(threads[i], tokens[i]);
  }

  // Books balance once everyone is done.
  for (const dm::TenantId t : {dm::TenantId{}, t1, t2}) {
    const auto stats = dm.tenant_stats(t);
    for (const std::size_t resident : stats.resident) {
      ASSERT_EQ(resident, 0u);
    }
  }
  ASSERT_AUDIT_CLEAN(dm);
}

/// Cross-tenant eviction shape: tenant B's thread writes its region's
/// bytes while tenant A (the root) tries to reclaim B's device window.
/// Buggy: RaceTestPeer::evict_ignoring_tenant hands B's region to the
/// callback, whose free is unordered with B's writes.  Fixed: the real
/// evictfrom refuses the foreign victim without invoking the callback.
void cross_tenant_evict(bool buggy) {
  const sim::Platform platform = tiny_platform();
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm(platform, clock, counters);
  const dm::TenantId owner = dm.register_tenant("owner");
  dm::Region* region = dm.allocate(sim::kFast, 64 * util::KiB, owner);
  ASSERT_NE(region, nullptr);
  std::byte* data = region->data();
  const std::size_t size = region->size();

  const std::size_t mark = sync::adoption_mark();
  const sync::spawn_token token = sync::before_spawn();
  std::thread owner_thread([data, size, token] {
    sync::task_scope scope(token);
    owner_writes(data, size, "cross_tenant_evict::owner");
  });
  sync::await_adoptions(mark + 1);

  bool freed = false;
  const auto free_victim = [&](dm::Region& r) {
    dm.free(&r);
    freed = true;
    return true;
  };
  if (buggy) {
    ASSERT_TRUE(
        dm::RaceTestPeer::evict_ignoring_tenant(dm, sim::kFast, free_victim));
  } else {
    // Requester is the default tenant: B's block is refused untouched and
    // the window past it is free, so the call still succeeds.
    ASSERT_TRUE(dm.evictfrom(sim::kFast, 0, 64 * util::KiB, free_victim,
                             dm::TenantId{}));
    ASSERT_FALSE(freed);
  }

  sync::join_thread(owner_thread, token);
  if (!freed) dm.free(region);
}

/// Cross-tenant defragment shape: tenant B's thread writes its region's
/// bytes on the fast tier.  Buggy: the root compacts that device
/// mid-traffic (a hole below B's region forces a memmove), violating
/// defragment's step-boundary contract -- the compaction's moves are
/// unordered with B's writes.  Fixed: the root defragments only after B's
/// traffic has been joined.
void cross_tenant_defragment(bool buggy) {
  const sim::Platform platform = tiny_platform();
  sim::Clock clock;
  telemetry::TrafficCounters counters;
  dm::DataManager dm(platform, clock, counters);
  const dm::TenantId owner = dm.register_tenant("owner");
  // A hole below the owner's region so compaction must move its bytes.
  dm::Region* hole = dm.allocate(sim::kFast, 64 * util::KiB);
  ASSERT_NE(hole, nullptr);
  dm::Region* region = dm.allocate(sim::kFast, 64 * util::KiB, owner);
  ASSERT_NE(region, nullptr);
  dm.free(hole);
  std::byte* data = region->data();
  const std::size_t size = region->size();

  const std::size_t mark = sync::adoption_mark();
  const sync::spawn_token token = sync::before_spawn();
  std::thread owner_thread([data, size, token] {
    sync::task_scope scope(token);
    owner_writes(data, size, "cross_tenant_defragment::owner");
  });
  sync::await_adoptions(mark + 1);

  if (buggy) {
    dm.defragment(sim::kFast);  // concurrent with B's writes: the bug
    sync::join_thread(owner_thread, token);
  } else {
    sync::join_thread(owner_thread, token);  // step boundary first
    dm.defragment(sim::kFast);
  }
  dm.free(region);
}

TEST(MultitenantRace, ConcurrentTenantsAreCleanAcrossSchedules) {
  race::ExplorerOptions opts;
  opts.schedules = 300;
  const auto result = race::explore(opts, concurrent_tenants_scenario);
  EXPECT_EQ(result.schedules_run, 300u);
  EXPECT_EQ(result.failing_schedules, 0u);
}

TEST(MultitenantRace, CrossTenantEvictIsFlaggedInEverySchedule) {
  race::ExplorerOptions opts;
  // These scenarios have fewer preemption points than the mover hazards,
  // so a wider seed sweep is needed to clear 1000 distinct interleavings.
  opts.schedules = 1500;
  opts.mix_strategies = false;
  opts.log_failures = false;
  const auto result = race::explore(opts, [] { cross_tenant_evict(true); });
  EXPECT_EQ(result.schedules_run, 1500u);
  EXPECT_EQ(result.failing_schedules, result.schedules_run);
  EXPECT_GE(result.distinct_schedules, 1000u);
  std::fprintf(stderr,
               "ca::race: cross-tenant evict flagged in %zu/%zu schedules "
               "(%zu distinct)\n",
               result.failing_schedules, result.schedules_run,
               result.distinct_schedules);
}

TEST(MultitenantRace, TenantIsolatedEvictIsCleanAcrossSchedules) {
  race::ExplorerOptions opts;
  opts.schedules = 300;
  const auto result = race::explore(opts, [] { cross_tenant_evict(false); });
  EXPECT_EQ(result.schedules_run, 300u);
  EXPECT_EQ(result.failing_schedules, 0u);
}

TEST(MultitenantRace, CrossTenantDefragmentIsFlaggedInEverySchedule) {
  race::ExplorerOptions opts;
  // See CrossTenantEvictIsFlaggedInEverySchedule on the sweep width.
  opts.schedules = 1500;
  opts.mix_strategies = false;
  opts.log_failures = false;
  const auto result =
      race::explore(opts, [] { cross_tenant_defragment(true); });
  EXPECT_EQ(result.schedules_run, 1500u);
  EXPECT_EQ(result.failing_schedules, result.schedules_run);
  EXPECT_GE(result.distinct_schedules, 1000u);
  std::fprintf(stderr,
               "ca::race: cross-tenant defragment flagged in %zu/%zu "
               "schedules (%zu distinct)\n",
               result.failing_schedules, result.schedules_run,
               result.distinct_schedules);
}

TEST(MultitenantRace, StepBoundaryDefragmentIsCleanAcrossSchedules) {
  race::ExplorerOptions opts;
  opts.schedules = 300;
  const auto result =
      race::explore(opts, [] { cross_tenant_defragment(false); });
  EXPECT_EQ(result.schedules_run, 300u);
  EXPECT_EQ(result.failing_schedules, 0u);
}

}  // namespace
}  // namespace ca

#endif  // CA_RACE
