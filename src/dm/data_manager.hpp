// The data manager: owner of the per-device heaps and the data-management
// API the policy layer drives (paper §III-C, "Data management API").
//
// Functions fall into the paper's three categories:
//   * object functions: getprimary, setprimary (plus object lifecycle and
//     kernel pinning);
//   * region functions: allocate, free, copyto, link, unlink, size_of,
//     getlinked, in, parent, dirty tracking, evictfrom;
//   * device functions: capacity / occupancy queries, defragmentation.
//
// The data manager knows nothing about *why* data moves -- that is the
// policy's job -- and the application never calls it directly.  This is the
// separation of concerns the paper argues for.
//
// Multi-tenant sharing (ROADMAP north-star; DESIGN.md §3.5): one manager
// may be driven by K concurrent clients, each identified by a TenantId.
// The serial monolith is split into fine-grained lock domains --
// `objects_mu_` (object/region tables and linkage), `heap_mu_` (the device
// allocators), `tenants_mu_` (tenant registration), and the existing
// `inflight_mu_` (async-transfer registry) -- with the single sanctioned
// nesting objects_mu_ -> heap_mu_ declared in docs/lock_hierarchy.json and
// enforced by ca::lockdep.  Per-tenant accounting and the per-tenant device
// quota (the fairness/QoS knob) are lock-free atomics.  The per-*object*
// data path (copyto, wait_ready, dirty bits) remains owner-serial: a tenant
// may not operate on another tenant's objects, and `evictfrom` refuses
// cross-tenant victims -- displacement of another tenant's data only ever
// happens through that tenant's own policy.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <source_location>
#include <string>
#include <unordered_map>
#include <vector>

#include "dm/object.hpp"
#include "dm/tenant.hpp"
#include "mem/arena.hpp"
#include "mem/copy_engine.hpp"
#include "mem/freelist_allocator.hpp"
#include "race/sync.hpp"
#include "sim/clock.hpp"
#include "sim/platform.hpp"
#include "telemetry/counters.hpp"
#include "util/thread_annotations.hpp"

namespace ca::dm {

struct DataManagerTestPeer;
struct RaceTestPeer;
class PinnedSpan;

class DataManager {
 public:
  struct DeviceStats {
    /// The device heap allocator's statistics: occupancy, fragmentation and
    /// the hot-path counters (splits, coalesces, bin hit rate).
    mem::FreeListAllocator::Stats alloc;

    /// Bytes resident on this device per tenant slot (heap-aligned; the
    /// sum over live tenants equals `alloc.allocated_bytes` -- audit
    /// invariant dm.tenant.resident).
    std::array<std::size_t, kMaxTenants> tenant_resident = {};
  };

  /// Aggregate statistics for asynchronous transfers (paper §V-c).
  struct AsyncStats {
    std::uint64_t scheduled = 0;      ///< copyto_async calls
    std::uint64_t retired = 0;        ///< transfers fully completed + retired
    std::uint64_t stalls = 0;         ///< wait_ready calls that had to stall
    double stall_seconds = 0.0;       ///< simulated seconds spent stalling
    double overlap_seconds = 0.0;     ///< modeled transfer time hidden behind
                                      ///< other work (duration - stall)
    std::size_t inflight_peak = 0;    ///< max transfers in the registry
  };

  /// One scheduled-but-not-yet-retired asynchronous transfer.  `dst` and
  /// `src` stay live (never freed or relocated) until the entry retires;
  /// the audit library checks exactly that.
  struct InflightTransfer {
    mem::Transfer transfer;
    Region* dst = nullptr;
    Region* src = nullptr;
  };

  DataManager(const sim::Platform& platform, sim::Clock& clock,
              telemetry::TrafficCounters& counters);
  ~DataManager();

  DataManager(const DataManager&) = delete;
  DataManager& operator=(const DataManager&) = delete;

  // --- Object functions -------------------------------------------------

  /// Create a logical object of `size` bytes for `tenant`.  No storage is
  /// attached yet; the policy decides where the first region goes.  `cls`
  /// tags the object's semantic class (gradient buckets etc.) for
  /// class-aware policies; the manager never branches on it.
  Object* create_object(std::size_t size, std::string name = {},
                        TenantId tenant = {},
                        ObjectClass cls = ObjectClass::kGeneric);

  /// Destroy an object and free all its regions.  Must not be pinned.
  void destroy_object(Object* object);

  [[nodiscard]] Region* getprimary(const Object& object) const noexcept {
    return object.primary();
  }

  /// Make `region` the primary for `object`.  If `region` is an orphan it
  /// is attached to the object first; otherwise it must already be linked
  /// to this object.  Fails if the object is pinned.
  void setprimary(Object& object, Region& region);

  /// Pin/unpin: while pinned, the primary pointer handed to a kernel stays
  /// valid (setprimary and destroy_object are rejected).  The counter is
  /// atomic so cross-tenant machinery (evictfrom candidate checks, audits)
  /// may read it without taking the object-table lock.
  void pin(Object& object) noexcept { object.pin_count_.fetch_add(1); }
  void unpin(Object& object);

  /// The sanctioned data accessor (ca::ptrprov runtime half): pins the
  /// object, stalls for any pending async fill of its primary, marks it
  /// dirty on write intent, and returns a provenance-tracked RAII span.
  /// Destroying the span unpins.  Defined in dm/pinned_span.hpp.
  PinnedSpan access(Object& object, bool write = false,
                    std::source_location loc = std::source_location::current());

  // --- Region functions -------------------------------------------------

  /// Allocate an orphan region of `size` bytes on `dev`, charged to
  /// `tenant`.  Returns nullptr when the device heap cannot satisfy the
  /// request (not an error: the policy probes and falls back) or when the
  /// tenant's quota on `dev` would be exceeded (the QoS knob; counted as a
  /// quota denial).
  [[nodiscard]] Region* allocate(sim::DeviceId dev, std::size_t size,
                                 TenantId tenant = {});

  /// Free a region.  If linked, it is unlinked first; the primary of an
  /// object with other regions cannot be freed directly (re-assign first).
  void free(Region* region);

  /// High-performance copy between regions (sizes must match).  Marks `dst`
  /// clean: after a copy the two regions hold identical bytes.  If both are
  /// linked to the same object, `src` is marked clean as well (they are now
  /// synchronized).
  void copyto(Region& dst, Region& src);

  /// Asynchronous copy (the paper's §V-c future-work item: "asynchronous
  /// data movement could be implemented with a separate thread pool").
  /// The real bytes move in the background on one of the copy engine's
  /// mover channels; the *modeled* transfer starts at
  /// max(now, channel availability, source readiness) and completes
  /// `modeled_copy_time` later.  The destination's `ready_at()` is set to
  /// the completion time; consumers stall only for whatever remains at use
  /// time (see `wait_ready`).  The transfer is tracked in an in-flight
  /// registry until it retires; both regions must stay live until then
  /// (free and defragment enforce this by joining first).  Returns the
  /// modeled completion time.
  double copyto_async(Region& dst, Region& src);

  /// Stall (advance the clock, charged as movement) until any in-flight
  /// async fill of `region` has completed, and join the real bytes so the
  /// caller may touch the region's memory.
  void wait_ready(Region& region);

  /// Latest modeled completion across all mover channels (no in-flight
  /// transfer completes later than this).
  [[nodiscard]] double mover_busy_until() const {
    return engine_.mover_horizon();
  }

  /// Remove registry entries whose modeled completion has passed (joining
  /// their real copies).  Called automatically by wait_ready/copyto_async;
  /// exposed for step-boundary housekeeping.
  void retire_transfers();

  /// Block the host until every scheduled real memcpy has finished, then
  /// retire everything the clock has caught up with.  Never advances the
  /// simulated clock.
  void drain_transfers();

  /// Snapshot of the async-transfer statistics.  Lock-free: the counters
  /// are plain relaxed atomics, so telemetry polling from one tenant never
  /// contends with another tenant's retire_transfers on the registry lock.
  [[nodiscard]] AsyncStats async_stats() const {
    AsyncStats s;
    s.scheduled = async_counters_.scheduled.load(std::memory_order_relaxed);
    s.retired = async_counters_.retired.load(std::memory_order_relaxed);
    s.stalls = async_counters_.stalls.load(std::memory_order_relaxed);
    s.stall_seconds =
        async_counters_.stall_seconds.load(std::memory_order_relaxed);
    s.overlap_seconds =
        async_counters_.overlap_seconds.load(std::memory_order_relaxed);
    s.inflight_peak =
        async_counters_.inflight_peak.load(std::memory_order_relaxed);
    return s;
  }

  /// Snapshot of the scheduled-but-not-retired transfer registry (for
  /// ca::audit).  Copied under the registry lock.
  [[nodiscard]] std::vector<InflightTransfer> inflight_transfers() const
      CA_EXCLUDES(inflight_mu_) {
    sync::lock lock(inflight_mu_);
    return inflight_;
  }

  /// Link an orphan region to the object of an owned region (they become
  /// siblings holding copies of the same logical data).
  void link(Region& owned, Region& orphan);

  /// Detach `region` from its object.  The primary cannot be unlinked.
  void unlink(Region& region);

  /// Size, device membership, parent (paper query functions).
  [[nodiscard]] std::size_t size_of(const Region& region) const noexcept {
    return region.size();
  }
  [[nodiscard]] bool in(const Region& region,
                        sim::DeviceId dev) const noexcept {
    return region.device() == dev;
  }
  [[nodiscard]] Region* getlinked(const Region& region,
                                  sim::DeviceId dev) const noexcept;
  [[nodiscard]] Object* parent(const Region& region) const noexcept {
    return region.parent();
  }

  void markdirty(Region& region) noexcept { region.dirty_ = true; }
  void markclean(Region& region) noexcept { region.dirty_ = false; }
  [[nodiscard]] bool isdirty(const Region& region) const noexcept {
    return region.dirty();
  }

  /// Reclaim a contiguous window of at least `size` bytes on `dev`.
  ///
  /// Walks blocks in address order starting at `start_offset`; for every
  /// live region in the candidate window the `evict` callback is invoked
  /// and must either relocate-and-free the region (returning true) or
  /// refuse (returning false, e.g. the object is pinned), in which case the
  /// search restarts past the refused block.  Wraps around the heap once.
  /// Returns true once a free window of `size` bytes exists.
  ///
  /// Tenant isolation: a candidate region owned by a tenant other than
  /// `requester` is refused *without* invoking the callback -- one tenant
  /// must never relocate or free another tenant's live storage (the owner
  /// could be using it concurrently); cross-tenant displacement only
  /// happens through the owning tenant's own policy.  Refused foreign
  /// blocks restart the search like a callback refusal.
  bool evictfrom(sim::DeviceId dev, std::size_t start_offset,
                 std::size_t size,
                 const std::function<bool(Region&)>& evict,
                 TenantId requester = {});

  // --- Tenant functions ---------------------------------------------------

  /// Register a named tenant and return its id.  Tenant 0 is the implicit
  /// default client and needs no registration; at most kMaxTenants tenants
  /// (including the default) may exist.
  TenantId register_tenant(std::string name) CA_EXCLUDES(tenants_mu_);

  /// The fairness/QoS knob: cap `tenant`'s resident bytes on `dev` at
  /// `bytes` (0 = unlimited, the default).  An allocation that would push
  /// the tenant past its quota fails like heap exhaustion and is counted
  /// as a quota denial, so one tenant's allocation storm cannot displace
  /// every other tenant's working set.  A non-zero quota below the
  /// tenant's current residency is rejected (it would be an instant
  /// overrun -- audit invariant dm.tenant.quota); drain first, then shrink.
  void set_tenant_quota(TenantId tenant, sim::DeviceId dev, std::size_t bytes);

  [[nodiscard]] std::size_t tenant_quota(TenantId tenant,
                                         sim::DeviceId dev) const;

  /// Lock-free snapshot of one tenant's accounting (resident bytes per
  /// tier, evictions, quota denials, stall time).
  [[nodiscard]] TenantStats tenant_stats(TenantId tenant) const;

  // --- Device functions ---------------------------------------------------

  [[nodiscard]] std::size_t device_count() const noexcept {
    return heaps_.size();
  }
  [[nodiscard]] DeviceStats device_stats(sim::DeviceId dev) const;
  [[nodiscard]] std::size_t capacity(sim::DeviceId dev) const;

  /// Total bytes currently allocated across all device heaps (the resident
  /// heap footprint plotted in Fig. 3).
  [[nodiscard]] std::size_t resident_bytes() const;

  /// Compact `dev`'s heap: slide every live region to the lowest possible
  /// address (objects are relocated; pinned objects must not exist on this
  /// device).  Charges TimeCategory::kOther; the paper defragments between
  /// iterations and reports the overhead as negligible.
  void defragment(sim::DeviceId dev);

  /// Device currently being defragmented, or -1.  While set, no pinned
  /// object may hold a region on that device (audit invariant dm.pin:
  /// compaction memmoves every live region on it).
  [[nodiscard]] int defragmenting_device() const noexcept {
    return defragmenting_.load(std::memory_order_relaxed);
  }

  // --- Read-only introspection (the ca::audit library and tests) ----------

  /// The offset-space allocator backing `dev`'s heap.
  [[nodiscard]] const mem::FreeListAllocator& allocator(sim::DeviceId dev)
      const {
    return *heap(dev).alloc;
  }

  /// Visit every live object / region.  Order unspecified.  Audit-only:
  /// walks the tables without objects_mu_ (the audit runs at mutation
  /// boundaries on a quiescent manager, and its callbacks re-enter
  /// owns_region, which does lock), so callers must guarantee no
  /// concurrent mutators.
  void for_each_object(const std::function<void(const Object&)>& fn) const
      CA_NO_THREAD_SAFETY_ANALYSIS;
  void for_each_region(const std::function<void(const Region&)>& fn) const
      CA_NO_THREAD_SAFETY_ANALYSIS;

  /// True iff `region` is currently owned by this manager (its storage is
  /// live).  Lets an auditor validate allocator cookies without touching
  /// possibly-dangling memory.
  [[nodiscard]] bool owns_region(const Region* region) const noexcept
      CA_EXCLUDES(objects_mu_);

  [[nodiscard]] const sim::Clock& clock() const noexcept { return clock_; }

  [[nodiscard]] mem::CopyEngine& engine() noexcept { return engine_; }
  [[nodiscard]] const mem::CopyEngine& engine() const noexcept {
    return engine_;
  }
  [[nodiscard]] const sim::Platform& platform() const noexcept {
    return platform_;
  }
  [[nodiscard]] sim::Clock& clock() noexcept { return clock_; }
  [[nodiscard]] telemetry::TrafficCounters& counters() noexcept {
    return counters_;
  }

  /// Number of live objects (for leak tests).
  [[nodiscard]] std::size_t live_objects() const CA_EXCLUDES(objects_mu_) {
    sync::lock lock(objects_mu_);
    return objects_.size();
  }
  [[nodiscard]] std::size_t live_regions() const CA_EXCLUDES(objects_mu_) {
    sync::lock lock(objects_mu_);
    return regions_.size();
  }

 private:
  friend struct DataManagerTestPeer;
  friend struct RaceTestPeer;

  struct DeviceHeap {
    explicit DeviceHeap(const sim::DeviceSpec& spec);
    mem::Arena arena;
    std::unique_ptr<mem::FreeListAllocator> alloc;
  };

  DeviceHeap& heap(sim::DeviceId dev);
  const DeviceHeap& heap(sim::DeviceId dev) const;
  void detach(Region& region) noexcept CA_REQUIRES(objects_mu_);
  /// Second half of every release path.  Caller has already detached the
  /// region and claimed it (releasing_) under objects_mu_; this joins the
  /// region's real copies lock-free, then frees block + table entry under
  /// objects_mu_ -> heap_mu_ and charges the owning tenant's accounting.
  void release_region(Region* region) CA_EXCLUDES(objects_mu_);

  /// Join (host-block on) the real copy of every in-flight transfer that
  /// reads from or writes into `region`, so its bytes may be touched, moved
  /// or its storage reused.  Never advances the simulated clock.
  void sync_region_real(Region& region);

  /// One tenant's accounting block: lock-free relaxed atomics (pure
  /// accounting sums).  Quota admission is an atomic reserve on `resident`
  /// (fetch_add before the heap lock, rolled back on failure), so the
  /// invariant "resident never exceeds a non-zero quota" holds without any
  /// lock.
  struct TenantSlot {
    std::array<std::atomic<std::size_t>, TenantStats::kMaxDevices> resident{};
    std::array<std::atomic<std::size_t>, TenantStats::kMaxDevices> quota{};
    std::atomic<std::uint64_t> allocations{0};
    std::atomic<std::uint64_t> frees{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> evictions_refused{0};
    std::atomic<std::uint64_t> quota_denials{0};
    std::atomic<std::uint64_t> stalls{0};
    std::atomic<double> stall_seconds{0.0};
  };

  /// Async-transfer statistics as relaxed atomics, mirroring AsyncStats
  /// field-for-field, so async_stats() needs no lock.
  struct AsyncCounters {
    std::atomic<std::uint64_t> scheduled{0};
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> stalls{0};
    std::atomic<double> stall_seconds{0.0};
    std::atomic<double> overlap_seconds{0.0};
    std::atomic<std::size_t> inflight_peak{0};
  };

  /// Accounting slot for `tenant` (bounds-checked: ids come from
  /// register_tenant or are the default 0).
  TenantSlot& tenant_slot(TenantId tenant) const;

  const sim::Platform& platform_;
  sim::Clock& clock_;
  telemetry::TrafficCounters& counters_;
  mem::CopyEngine engine_;
  /// Device currently being compacted, -1 when none.  Atomic so the
  /// lock-free defragmenting_device() query (audit, pin checks) is safe.
  std::atomic<int> defragmenting_{-1};
  /// The vector itself is immutable after construction (one heap per
  /// platform device); all allocator/arena state inside is guarded by
  /// heap_mu_.
  std::vector<std::unique_ptr<DeviceHeap>> heaps_;

  /// Heap lock: guards every device allocator + arena in heaps_, including
  /// reads of allocator block cookies.  One lock for all tiers -- the
  /// multi-tenant win comes from separating heap work from the object
  /// table and the transfer registry, not from per-tier splits.  Leaf;
  /// declared before objects_mu_ so its acquired_before can name it.
  mutable sync::mutex heap_mu_
      CA_LEAF{CA_LOCK_CLASS("dm::DataManager::heap_mu_")};

  /// Object/region-table lock: guards the ownership maps, the id counter
  /// and all object<->region linkage fields.  May acquire heap_mu_
  /// (allocate, release, defragment) -- the hierarchy's only edge.
  mutable sync::mutex objects_mu_ CA_ACQUIRED_BEFORE(heap_mu_){
      CA_LOCK_CLASS("dm::DataManager::objects_mu_")};
  std::unordered_map<Region*, std::unique_ptr<Region>> regions_
      CA_GUARDED_BY(objects_mu_);
  std::unordered_map<Object*, std::unique_ptr<Object>> objects_
      CA_GUARDED_BY(objects_mu_);
  ObjectId next_object_id_ CA_GUARDED_BY(objects_mu_) = 1;

  /// Tenant-registration lock (leaf; registration is cold).  The hot-path
  /// accounting lives lock-free in tenants_.
  mutable sync::mutex tenants_mu_
      CA_LEAF{CA_LOCK_CLASS("dm::DataManager::tenants_mu_")};
  std::array<std::string, kMaxTenants> tenant_names_
      CA_GUARDED_BY(tenants_mu_);
  std::size_t tenant_count_ CA_GUARDED_BY(tenants_mu_) = 1;

  /// Per-tenant accounting (slot 0 = default tenant).  mutable: stall time
  /// is charged from paths reachable via const queries.
  mutable std::array<TenantSlot, kMaxTenants> tenants_{};

  /// Guards the in-flight registry.  Leaf lock: it is never held across
  /// Transfer::join(), engine calls, or CA_AUDIT() (docs/CONCURRENCY.md has
  /// the full hierarchy).
  mutable sync::mutex inflight_mu_
      CA_LEAF{CA_LOCK_CLASS("dm::DataManager::inflight_mu_")};
  std::vector<InflightTransfer> inflight_ CA_GUARDED_BY(inflight_mu_);
  /// Lock-free async statistics (see async_stats()); cache-line-aligned so
  /// retire-path increments do not false-share with the registry lock.
  alignas(64) AsyncCounters async_counters_{};
};

}  // namespace ca::dm
