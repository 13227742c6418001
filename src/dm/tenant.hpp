// Tenant identity and per-tenant accounting for the shared DataManager.
//
// The paper's prototype serves one trainer; the production setting the
// ROADMAP targets is N models/request streams contending for one
// DRAM+NVRAM heap (cf. "Online Application Guidance for Heterogeneous
// Memory Systems", which manages multiple applications' tier placement
// online).  A TenantId names one such client.  It is threaded through
// allocate/evictfrom/create_object so the manager can account bytes,
// evictions and stalls per tenant and enforce the per-tenant device
// quota that is the fairness/QoS knob: with a quota set, one tenant's
// allocation burst cannot displace every other tenant's working set.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace ca::dm {

/// Identifies one client (trainer / request stream) of a shared
/// DataManager.  Value 0 is the default tenant: single-client code that
/// never registers tenants runs entirely under it and sees no behaviour
/// change.
struct TenantId {
  std::uint32_t value = 0;

  friend bool operator==(TenantId a, TenantId b) noexcept {
    return a.value == b.value;
  }
  friend bool operator!=(TenantId a, TenantId b) noexcept {
    return a.value != b.value;
  }
};

/// Fixed tenant-slot count: accounting lives in flat per-slot atomic
/// blocks (no map, no lock on the hot path).  16 slots cover the default
/// tenant plus the widest data-parallel trainer fleet (dp::Trainer at
/// K = 8) with headroom.
inline constexpr std::size_t kMaxTenants = 16;

/// Snapshot of one tenant's accounting (returned by value from
/// DataManager::tenant_stats; internally these are lock-free atomics).
struct TenantStats {
  static constexpr std::size_t kMaxDevices = 8;

  /// Bytes currently resident per device tier (heap-aligned sizes, so the
  /// per-tenant sum over live tenants equals the device's allocated bytes
  /// -- audit invariant dm.tenant.resident).
  std::array<std::size_t, kMaxDevices> resident = {};

  std::uint64_t allocations = 0;       ///< successful region allocations
  std::uint64_t frees = 0;             ///< region releases (any path)
  std::uint64_t evictions = 0;  ///< own regions this tenant's evictfrom
                                ///< calls relocated (evictfrom never
                                ///< displaces another tenant's region)
  std::uint64_t evictions_refused = 0;  ///< foreign victims this tenant's
                                        ///< evictfrom scans skipped (tenant
                                        ///< isolation refusals)
  std::uint64_t quota_denials = 0;  ///< allocations refused by the QoS quota
  std::uint64_t stalls = 0;         ///< wait_ready calls that had to stall
  double stall_seconds = 0.0;       ///< simulated seconds spent stalling
};

}  // namespace ca::dm
