// Multi-tenant DataManager semantics and plain-thread concurrency.
//
// The serial half pins down the tenant API contract: registration limits,
// per-tenant accounting (resident bytes, allocations/frees, eviction and
// stall counters), the quota admission bound with its denial counting and
// rollback, tenant-match enforcement on link/setprimary, and eviction
// isolation.  The concurrent half runs K tenants against one shared
// manager from real std::threads -- no explorer, so the same binary
// stress-tests the fine-grained locking under TSan and in release builds.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "audit_clean.hpp"
#include "dm/data_manager.hpp"
#include "race/sync.hpp"
#include "sim/platform.hpp"
#include "util/align.hpp"
#include "util/error.hpp"

namespace ca {
namespace {

class MultitenantFixture : public ::testing::Test {
 protected:
  MultitenantFixture()
      : platform_(sim::Platform::cascade_lake_scaled(4 * util::MiB,
                                                     16 * util::MiB)),
        dm_(platform_, clock_, counters_) {}

  sim::Platform platform_;
  sim::Clock clock_;
  telemetry::TrafficCounters counters_;
  dm::DataManager dm_;
};

TEST_F(MultitenantFixture, RegistrationAssignsSequentialIdsUpToTheCap) {
  std::vector<dm::TenantId> ids;
  for (std::size_t i = 1; i < dm::kMaxTenants; ++i) {
    ids.push_back(dm_.register_tenant("tenant-" + std::to_string(i)));
    EXPECT_EQ(ids.back().value, i);
  }
  EXPECT_THROW(dm_.register_tenant("one-too-many"), UsageError);
}

TEST_F(MultitenantFixture, ResidentBytesAreChargedPerTenantAndDevice) {
  const dm::TenantId t = dm_.register_tenant("charged");
  dm::Region* fast = dm_.allocate(sim::kFast, 4096, t);
  dm::Region* slow = dm_.allocate(sim::kSlow, 10000, t);
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);
  const auto stats = dm_.tenant_stats(t);
  EXPECT_EQ(stats.resident[sim::kFast.value], 4096u);
  // Charged at heap-aligned size, matching what the allocator carved.
  EXPECT_EQ(stats.resident[sim::kSlow.value],
            util::align_up(std::size_t{10000},
                           dm_.allocator(sim::kSlow).alignment()));
  EXPECT_EQ(stats.allocations, 2u);
  // The default tenant is not charged for another tenant's bytes.
  EXPECT_EQ(dm_.tenant_stats(dm::TenantId{}).resident[sim::kFast.value], 0u);
  // device_stats exports the same split.
  EXPECT_EQ(dm_.device_stats(sim::kFast).tenant_resident[t.value], 4096u);
  dm_.free(fast);
  dm_.free(slow);
  const auto after = dm_.tenant_stats(t);
  EXPECT_EQ(after.resident[sim::kFast.value], 0u);
  EXPECT_EQ(after.resident[sim::kSlow.value], 0u);
  EXPECT_EQ(after.frees, 2u);
}

TEST_F(MultitenantFixture, QuotaDeniesAdmissionAndRollsBackTheReserve) {
  const dm::TenantId t = dm_.register_tenant("capped");
  dm_.set_tenant_quota(t, sim::kFast, 8192);
  EXPECT_EQ(dm_.tenant_quota(t, sim::kFast), 8192u);
  dm::Region* a = dm_.allocate(sim::kFast, 4096, t);
  dm::Region* b = dm_.allocate(sim::kFast, 4096, t);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // At the cap: the next byte is refused and counted, and the failed
  // reserve is rolled back (resident unchanged).
  EXPECT_EQ(dm_.allocate(sim::kFast, 64, t), nullptr);
  auto stats = dm_.tenant_stats(t);
  EXPECT_EQ(stats.quota_denials, 1u);
  EXPECT_EQ(stats.resident[sim::kFast.value], 8192u);
  // Other tenants and other devices are unaffected by this tenant's cap.
  dm::Region* other = dm_.allocate(sim::kFast, 4096);
  ASSERT_NE(other, nullptr);
  dm::Region* spill = dm_.allocate(sim::kSlow, 4096, t);
  ASSERT_NE(spill, nullptr);
  // Freeing drains the accounting and re-admits.
  dm_.free(a);
  dm::Region* again = dm_.allocate(sim::kFast, 4096, t);
  EXPECT_NE(again, nullptr);
  dm_.free(other);
  dm_.free(spill);
  dm_.free(b);
  dm_.free(again);
}

TEST_F(MultitenantFixture, QuotaCannotShrinkBelowResidency) {
  const dm::TenantId t = dm_.register_tenant("shrink");
  dm::Region* r = dm_.allocate(sim::kFast, 8192, t);
  ASSERT_NE(r, nullptr);
  EXPECT_THROW(dm_.set_tenant_quota(t, sim::kFast, 4096), InternalError);
  dm_.set_tenant_quota(t, sim::kFast, 8192);  // at residency: fine
  dm_.free(r);
  dm_.set_tenant_quota(t, sim::kFast, 4096);  // drained: fine
}

TEST_F(MultitenantFixture, ObjectsInheritTenantAndRejectForeignRegions) {
  const dm::TenantId mine = dm_.register_tenant("mine");
  const dm::TenantId theirs = dm_.register_tenant("theirs");
  dm::Object* obj = dm_.create_object(4096, "obj", mine);
  EXPECT_EQ(obj->tenant(), mine);
  dm::Region* own = dm_.allocate(sim::kFast, 4096, mine);
  dm::Region* foreign = dm_.allocate(sim::kFast, 4096, theirs);
  dm_.setprimary(*obj, *own);
  EXPECT_THROW(dm_.link(*own, *foreign), UsageError);
  dm_.free(foreign);
  dm_.destroy_object(obj);
}

TEST_F(MultitenantFixture, EvictfromRefusesForeignVictimsWithoutCallback) {
  const dm::TenantId owner = dm_.register_tenant("owner");
  const dm::TenantId raider = dm_.register_tenant("raider");
  dm::Region* held = dm_.allocate(sim::kFast, 64 * util::KiB, owner);
  ASSERT_NE(held, nullptr);
  std::size_t callbacks = 0;
  // The whole window is foreign: the callback must never run, and the
  // refused block is skipped (the rest of the tier is free, so the call
  // still finds a window and succeeds).
  EXPECT_TRUE(dm_.evictfrom(
      sim::kFast, 0, 64 * util::KiB,
      [&](dm::Region&) {
        ++callbacks;
        return true;
      },
      raider));
  EXPECT_EQ(callbacks, 0u);
  EXPECT_EQ(dm_.tenant_stats(raider).evictions, 0u);
  EXPECT_EQ(dm_.tenant_stats(owner).evictions, 0u);
  // Self-eviction still works and is counted once, on the requester.
  EXPECT_TRUE(dm_.evictfrom(
      sim::kFast, 0, 64 * util::KiB,
      [&](dm::Region& r) {
        dm_.free(&r);
        return true;
      },
      owner));
  EXPECT_EQ(dm_.tenant_stats(owner).evictions, 1u);
}

TEST_F(MultitenantFixture, ForeignVictimRefusalsAreCountedOnTheRequester) {
  const dm::TenantId owner = dm_.register_tenant("owner");
  const dm::TenantId raider = dm_.register_tenant("raider");
  dm::Region* held = dm_.allocate(sim::kFast, 64 * util::KiB, owner);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(dm_.tenant_stats(raider).evictions_refused, 0u);
  // The raider's scan bounces off the owner's live block: one refusal,
  // charged to the raider (the starving side -- the observability this
  // counter exists for), none to the owner.
  EXPECT_TRUE(dm_.evictfrom(
      sim::kFast, 0, 64 * util::KiB, [](dm::Region&) { return true; },
      raider));
  EXPECT_EQ(dm_.tenant_stats(raider).evictions_refused, 1u);
  EXPECT_EQ(dm_.tenant_stats(owner).evictions_refused, 0u);
  // Self-reclaim is isolation-clean: no refusal lands on the owner.
  EXPECT_TRUE(dm_.evictfrom(
      sim::kFast, 0, 64 * util::KiB,
      [&](dm::Region& r) {
        dm_.free(&r);
        return true;
      },
      owner));
  EXPECT_EQ(dm_.tenant_stats(owner).evictions_refused, 0u);
  // With the window drained, another raider scan adds nothing.
  EXPECT_TRUE(dm_.evictfrom(
      sim::kFast, 0, 64 * util::KiB, [](dm::Region&) { return true; },
      raider));
  EXPECT_EQ(dm_.tenant_stats(raider).evictions_refused, 1u);
}

TEST_F(MultitenantFixture, StallTimeIsChargedToTheStallingTenant) {
  const dm::TenantId t = dm_.register_tenant("staller");
  dm::Region* src = dm_.allocate(sim::kSlow, 256 * util::KiB, t);
  dm::Region* dst = dm_.allocate(sim::kFast, 256 * util::KiB, t);
  ASSERT_NE(src, nullptr);
  ASSERT_NE(dst, nullptr);
  dm_.copyto_async(*dst, *src);
  dm_.wait_ready(*dst);  // modeled completion is in the future: stalls
  const auto stats = dm_.tenant_stats(t);
  EXPECT_EQ(stats.stalls, 1u);
  EXPECT_GT(stats.stall_seconds, 0.0);
  EXPECT_EQ(dm_.tenant_stats(dm::TenantId{}).stalls, 0u);
  dm_.free(dst);
  dm_.free(src);
}

// --- plain-thread concurrency (TSan-able; no explorer) ----------------------

TEST_F(MultitenantFixture, ConcurrentTenantsKeepTheBooksBalanced) {
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kIterations = 25;
  std::vector<dm::TenantId> ids;
  for (std::size_t t = 0; t < kTenants; ++t) {
    ids.push_back(dm_.register_tenant("worker-" + std::to_string(t)));
    // A quota sized so concurrent working sets always fit: the knob is on
    // without introducing scheduling-dependent denials.
    dm_.set_tenant_quota(ids.back(), sim::kFast, 512 * util::KiB);
  }

  const std::size_t mark = sync::adoption_mark();
  std::vector<std::thread> threads;
  std::vector<sync::spawn_token> tokens;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const sync::spawn_token token = sync::before_spawn();
    tokens.push_back(token);
    threads.emplace_back([this, tenant = ids[t], token] {
      sync::task_scope scope(token);
      for (std::size_t i = 0; i < kIterations; ++i) {
        dm::Object* obj =
            dm_.create_object(16 * util::KiB, "scratch", tenant);
        dm::Region* slow =
            dm_.allocate(sim::kSlow, 16 * util::KiB, tenant);
        ASSERT_NE(slow, nullptr);
        dm_.setprimary(*obj, *slow);
        std::memset(slow->data(), 0x42, slow->size());
        dm::Region* fast =
            dm_.allocate(sim::kFast, 16 * util::KiB, tenant);
        ASSERT_NE(fast, nullptr);
        dm_.link(*slow, *fast);
        dm_.copyto(*fast, *slow);
        dm_.setprimary(*obj, *fast);
        // A self-only eviction pass: foreign blocks are refused, own
        // blocks relocate through unlink+free, all concurrent.
        if (i % 5 == 4) {
          (void)dm_.evictfrom(
              sim::kFast, 0, 16 * util::KiB,
              [&](dm::Region& r) {
                if (&r == fast) return false;  // keep the live working set
                dm_.free(&r);
                return true;
              },
              tenant);
        }
        (void)dm_.tenant_stats(tenant);
        (void)dm_.async_stats();
        dm_.destroy_object(obj);  // releases both regions
      }
    });
  }
  // Under a CA_RACE build these helpers hand the threads to the scheduler;
  // in plain and TSan builds they are no-ops and this is ordinary
  // std::thread concurrency.
  sync::await_adoptions(mark + kTenants);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    sync::join_thread(threads[t], tokens[t]);
  }

  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto stats = dm_.tenant_stats(ids[t]);
    EXPECT_EQ(stats.resident[sim::kFast.value], 0u)
        << "tenant " << t << " leaked fast-tier accounting";
    EXPECT_EQ(stats.resident[sim::kSlow.value], 0u)
        << "tenant " << t << " leaked slow-tier accounting";
    EXPECT_EQ(stats.allocations, stats.frees);
    EXPECT_GE(stats.allocations, 2 * kIterations);
    EXPECT_EQ(stats.quota_denials, 0u);
  }
  EXPECT_EQ(dm_.live_objects(), 0u);
  EXPECT_EQ(dm_.live_regions(), 0u);
  ASSERT_AUDIT_CLEAN(dm_);
}

TEST_F(MultitenantFixture, ConcurrentRegistrationStaysWithinTheCap) {
  constexpr std::size_t kThreads = 4;
  // Enough attempts per thread to oversubscribe the cap no matter its
  // value (the fixture's own tenant already holds one slot).
  constexpr std::size_t kAttempts = dm::kMaxTenants / kThreads + 2;
  const std::size_t mark = sync::adoption_mark();
  std::vector<std::thread> threads;
  std::vector<sync::spawn_token> tokens;
  sync::atomic<std::size_t> registered{0};
  sync::atomic<std::size_t> refused{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    const sync::spawn_token token = sync::before_spawn();
    tokens.push_back(token);
    threads.emplace_back([this, &registered, &refused, token] {
      sync::task_scope scope(token);
      for (std::size_t i = 0; i < kAttempts; ++i) {
        try {
          (void)dm_.register_tenant("racer");
          registered.fetch_add(1);
        } catch (const UsageError&) {
          refused.fetch_add(1);
        }
      }
    });
  }
  sync::await_adoptions(mark + kThreads);
  for (std::size_t t = 0; t < threads.size(); ++t) {
    sync::join_thread(threads[t], tokens[t]);
  }
  // More attempts than free slots: exactly the cap's worth register, the
  // rest are refused.
  EXPECT_EQ(registered.load(), dm::kMaxTenants - 1);
  EXPECT_EQ(refused.load(), kThreads * kAttempts - (dm::kMaxTenants - 1));
}

}  // namespace
}  // namespace ca
