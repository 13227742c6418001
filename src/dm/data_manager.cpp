#include "dm/data_manager.hpp"

#include "dm/audit_hook.hpp"

#include <algorithm>
#include <source_location>
#include <utility>

#include "ptrprov/ptrprov.hpp"
#include "race/access.hpp"
#include "util/align.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace ca::dm {

namespace {
constexpr std::size_t kHeapAlignment = 64;  // cache-line aligned regions

/// Names the release path in flight for provenance reports ("free" vs
/// "evictfrom" vs "destroy_object"): a dangling pointer into a region the
/// eviction loop reclaimed reads very differently from one into a region
/// the application freed.  Thread-local so each tenant thread labels only
/// its own release path.
thread_local const char* t_release_op = "free";

struct ScopedReleaseOp {
  const char* prev;
  explicit ScopedReleaseOp(const char* op) : prev(t_release_op) {
    t_release_op = op;
  }
  ~ScopedReleaseOp() { t_release_op = prev; }
};
}  // namespace

DataManager::DeviceHeap::DeviceHeap(const sim::DeviceSpec& spec)
    : arena(spec.capacity),
      alloc(std::make_unique<mem::FreeListAllocator>(spec.capacity,
                                                     kHeapAlignment)) {}

DataManager::DataManager(const sim::Platform& platform, sim::Clock& clock,
                         telemetry::TrafficCounters& counters)
    : platform_(platform),
      clock_(clock),
      counters_(counters),
      engine_(platform, clock, counters) {
  CA_CHECK(!platform.devices.empty(), "platform has no devices");
  CA_CHECK(platform.devices.size() <= Object::kMaxDevices,
           "too many devices for per-object region tracking");
  CA_CHECK(platform.devices.size() <= TenantStats::kMaxDevices,
           "too many devices for per-tenant accounting");
  heaps_.reserve(platform.devices.size());
  for (const auto& spec : platform.devices) {
    heaps_.push_back(std::make_unique<DeviceHeap>(spec));
  }
}

DataManager::~DataManager() {
  // Mover threads may still hold raw pointers into the arenas; the heaps are
  // destroyed before the engine (reverse member order), so join them first.
  engine_.drain();
}

DataManager::DeviceHeap& DataManager::heap(sim::DeviceId dev) {
  CA_CHECK(dev.value < heaps_.size(), "unknown device id");
  return *heaps_[dev.value];
}

const DataManager::DeviceHeap& DataManager::heap(sim::DeviceId dev) const {
  CA_CHECK(dev.value < heaps_.size(), "unknown device id");
  return *heaps_[dev.value];
}

DataManager::TenantSlot& DataManager::tenant_slot(TenantId tenant) const {
  CA_CHECK(tenant.value < kMaxTenants, "unknown tenant id");
  return tenants_[tenant.value];
}

// --- Object functions -----------------------------------------------------

Object* DataManager::create_object(std::size_t size, std::string name,
                                   TenantId tenant, ObjectClass cls) {
  if (size == 0) throw UsageError("objects must have a positive size");
  (void)tenant_slot(tenant);  // bounds-check the id up front
  auto owned = std::make_unique<Object>();
  Object* object = owned.get();
  object->size_ = size;
  object->name_ = std::move(name);
  object->tenant_ = tenant;
  object->class_ = cls;
  {
    sync::lock lock(objects_mu_);
    object->id_ = next_object_id_++;
    objects_.emplace(object, std::move(owned));
  }
  CA_AUDIT(*this);
  return object;
}

void DataManager::destroy_object(Object* object) {
  CA_CHECK(object != nullptr, "destroy_object(nullptr)");
  const ScopedReleaseOp op("destroy_object");
  // Phase 1 (objects_mu_): validate, detach and claim every region, and
  // pull the object out of the table so no other path can reach it.  The
  // Object itself stays alive (local unique_ptr) until the regions are
  // gone.
  std::unique_ptr<Object> owned;
  std::vector<Region*> doomed;
  {
    sync::lock lock(objects_mu_);
    const auto it = objects_.find(object);
    if (it == objects_.end()) {
      throw UsageError("destroy_object: unknown or already-destroyed object");
    }
    if (object->pinned()) {
      throw UsageError("destroy_object: object '" + object->name() +
                       "' is pinned by a running kernel");
    }
    for (auto*& region : object->regions_) {
      if (region != nullptr) {
        Region* r = region;
        region = nullptr;
        r->parent_ = nullptr;
        CA_CHECK(!r->releasing_, "destroy_object: region already being freed");
        r->releasing_ = true;
        doomed.push_back(r);
      }
    }
    object->primary_ = nullptr;
    owned = std::move(it->second);
    objects_.erase(it);
  }
  // Phase 2 (no locks held on entry): release each claimed region.
  for (Region* r : doomed) release_region(r);
  CA_AUDIT(*this);
}

void DataManager::setprimary(Object& object, Region& region) {
  {
    sync::lock lock(objects_mu_);
    if (object.pinned()) {
      throw UsageError("setprimary: object '" + object.name() +
                       "' is pinned by a running kernel");
    }
    if (region.parent_ == nullptr) {
      // Attach the orphan first (the Listing-1 fast path: a fresh
      // slow-memory region becomes primary directly, without an explicit
      // link).
      if (region.size() < object.size()) {
        throw UsageError("setprimary: region is smaller than the object");
      }
      if (object.region_on(region.device()) != nullptr) {
        throw UsageError(
            "setprimary: object already has a region on that device");
      }
      if (region.tenant() != object.tenant()) {
        throw UsageError(
            "setprimary: region and object belong to different tenants");
      }
      region.parent_ = &object;
      object.regions_[region.device().value] = &region;
    } else if (region.parent_ != &object) {
      throw UsageError("setprimary: region belongs to a different object");
    }
    object.primary_ = &region;
  }
  CA_AUDIT(*this);
}

void DataManager::unpin(Object& object) {
  const int prev = object.pin_count_.fetch_sub(1);
  CA_CHECK(prev > 0, "unpin of an unpinned object");
  CA_AUDIT(*this);
}

// --- Region functions -------------------------------------------------------

Region* DataManager::allocate(sim::DeviceId dev, std::size_t size,
                              TenantId tenant) {
  if (size == 0) throw UsageError("allocate: size must be positive");
  auto& h = heap(dev);  // bounds-checks dev; does not touch the allocator
  TenantSlot& slot = tenant_slot(tenant);

  // Quota admission (the QoS knob): reserve the charged bytes atomically
  // *before* taking any lock, so two tenants' admissions can never race
  // past a limit; roll the reservation back on any failure.  `charged` is
  // the block size the allocator will account, so the per-tenant resident
  // sums stay equal to the device's allocated bytes (dm.tenant.resident).
  const std::size_t charged = util::align_up(size, kHeapAlignment);
  const std::size_t prev =
      slot.resident[dev.value].fetch_add(charged, std::memory_order_relaxed);
  const std::size_t quota =
      slot.quota[dev.value].load(std::memory_order_relaxed);
  if (quota != 0 && prev + charged > quota) {
    slot.resident[dev.value].fetch_sub(charged, std::memory_order_relaxed);
    slot.quota_denials.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  auto owned = std::make_unique<Region>();
  Region* region = owned.get();
  region->device_ = dev;
  region->size_ = size;
  region->tenant_ = tenant;
  std::optional<std::size_t> offset;
  {
    // The hierarchy's one sanctioned nesting: table + heap mutate together
    // so an allocated block's cookie always names a live table entry.
    sync::lock lock(objects_mu_);
    sync::lock heap_lock(heap_mu_);
    offset = h.alloc->allocate(size);
    if (offset) {
      region->offset_ = *offset;
      region->data_ = h.arena.at(*offset);
      h.alloc->set_cookie(*offset, region);
      regions_.emplace(region, std::move(owned));
    }
  }
  if (!offset) {
    slot.resident[dev.value].fetch_sub(charged, std::memory_order_relaxed);
    return nullptr;
  }
  slot.allocations.fetch_add(1, std::memory_order_relaxed);
  CA_RACE_ALLOC(region->data_, region->size_, "DataManager::allocate");
  // Fresh storage starts a fresh provenance history (the address may have
  // belonged to a freed region whose tombstone must not outlive it).
  ptrprov::on_region_alloc(region);
  CA_AUDIT(*this);
  return region;
}

void DataManager::detach(Region& region) noexcept {
  Object* object = region.parent_;
  if (object == nullptr) return;
  object->regions_[region.device().value] = nullptr;
  if (object->primary_ == &region) object->primary_ = nullptr;
  region.parent_ = nullptr;
}

void DataManager::sync_region_real(Region& region) {
  // Copy the matching handles out of the registry before joining: joins can
  // block, and the registry lock is a leaf that must never be held across a
  // blocking call (another task might need it to make progress).
  std::vector<mem::Transfer> pending;
  {
    sync::lock lock(inflight_mu_);
    for (const auto& t : inflight_) {
      if (t.dst == &region || t.src == &region) pending.push_back(t.transfer);
    }
  }
  for (const auto& t : pending) t.join();
  if (region.fill_.valid()) region.fill_.join();
}

void DataManager::release_region(Region* region) {
  // The caller detached + claimed the region under objects_mu_ (releasing_),
  // so this path owns it exclusively even though no lock is held here.
  //
  // A region's storage may not be reused while a mover thread still reads
  // or writes it: join the real copies, then abandon the modeled completions
  // (an evicted-before-use prefetch is legitimate and must not throw).
  sync_region_real(*region);
  {
    sync::lock lock(inflight_mu_);
    std::size_t kept = 0;
    for (auto& t : inflight_) {
      if (t.dst == region || t.src == region) {
        async_counters_.retired.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (&inflight_[kept] != &t) inflight_[kept] = std::move(t);
      ++kept;
    }
    inflight_.resize(kept);
  }

  ++region->generation_;
  ptrprov::on_region_free(region, t_release_op,
                          std::source_location::current());
  CA_RACE_FREE(region->data(), region->size(), "DataManager::release_region");

  // Free the heap block and drop the table entry together under the
  // hierarchy's edge; the Region object itself dies only after the locks
  // release (by then the block is free, so no heap walk can reach it).
  std::unique_ptr<Region> owned;
  {
    sync::lock lock(objects_mu_);
    sync::lock heap_lock(heap_mu_);
    heap(region->device()).alloc->free(region->offset());
    auto node = regions_.extract(region);
    CA_CHECK(!node.empty(), "release of an unknown region");
    owned = std::move(node.mapped());
  }
  TenantSlot& slot = tenant_slot(region->tenant());
  slot.resident[region->device().value].fetch_sub(
      util::align_up(region->size(), kHeapAlignment),
      std::memory_order_relaxed);
  slot.frees.fetch_add(1, std::memory_order_relaxed);
}

void DataManager::free(Region* region) {
  CA_CHECK(region != nullptr, "free(nullptr)");
  {
    sync::lock lock(objects_mu_);
    if (regions_.find(region) == regions_.end() || region->releasing_) {
      throw UsageError("free: unknown or already-freed region");
    }
    Object* object = region->parent();
    if (object != nullptr) {
      if (object->primary() == region && object->region_count() > 1) {
        throw UsageError(
            "free: region is the primary of an object with other regions; "
            "setprimary elsewhere first");
      }
      if (object->pinned() && object->primary() == region) {
        throw UsageError("free: region is pinned by a running kernel");
      }
      detach(*region);
    }
    region->releasing_ = true;
  }
  release_region(region);
  CA_AUDIT(*this);
}

void DataManager::copyto(Region& dst, Region& src) {
  if (dst.size() < src.size()) {
    throw UsageError("copyto: destination region is too small");
  }
  // A synchronous copy consumes the source now: stall for any in-flight
  // fill of it (modeled + real).  The destination only needs its real
  // copies joined -- whatever was being written there is overwritten.
  wait_ready(src);
  sync_region_real(dst);
  const bool non_temporal = true;  // the engine always streams its stores
  engine_.copy(dst.data(), dst.device(), src.data(), src.device(), src.size(),
               non_temporal);
  dst.ready_at_ = 0.0;
  dst.fill_.reset();
  dst.dirty_ = false;
  if (src.parent() != nullptr && src.parent() == dst.parent()) {
    // Linked siblings are now synchronized.
    src.dirty_ = false;
  }
  CA_AUDIT(*this);
}

double DataManager::copyto_async(Region& dst, Region& src) {
  if (dst.size() < src.size()) {
    throw UsageError("copyto_async: destination region is too small");
  }
  // Real-copy ordering: the mover must not read `src` before a pending fill
  // of it has landed, nor write `dst` while another mover still touches it.
  // These joins block the host briefly; they never advance the clock.
  sync_region_real(dst);
  if (src.fill_.valid()) src.fill_.join();

  // Modeled ordering: the transfer cannot start before its source is ready
  // (nor before an earlier modeled fill of the destination completes, so a
  // region's ready_at is always its *latest* writer).
  const double earliest = std::max(src.ready_at_, dst.ready_at_);
  mem::Transfer t =
      engine_.copy_async(dst.data(), dst.device(), src.data(), src.device(),
                         src.size(), earliest, /*non_temporal=*/true);
  const double done = t.done_time();
  dst.ready_at_ = done;
  dst.fill_ = t;
  dst.dirty_ = false;
  if (src.parent() != nullptr && src.parent() == dst.parent()) {
    src.dirty_ = false;
  }
  {
    sync::lock lock(inflight_mu_);
    inflight_.push_back(InflightTransfer{std::move(t), &dst, &src});
    // Peak depth: only ever updated under inflight_mu_, so load+store is a
    // race-free max; stored atomically for the lock-free async_stats().
    const std::size_t depth = inflight_.size();
    if (depth >
        async_counters_.inflight_peak.load(std::memory_order_relaxed)) {
      async_counters_.inflight_peak.store(depth, std::memory_order_relaxed);
    }
  }
  async_counters_.scheduled.fetch_add(1, std::memory_order_relaxed);
  CA_AUDIT(*this);
  return done;
}

void DataManager::wait_ready(Region& region) {
  double stall = 0.0;
  // One now() sample: another tenant may be advancing the shared clock
  // concurrently, and the stall charged must match the comparison made.
  const double now = clock_.now();
  if (region.ready_at_ > now) {
    stall = region.ready_at_ - now;
    clock_.advance(stall, sim::TimeCategory::kMovement);
    async_counters_.stalls.fetch_add(1, std::memory_order_relaxed);
    async_counters_.stall_seconds.fetch_add(stall, std::memory_order_relaxed);
    TenantSlot& slot = tenant_slot(region.tenant());
    slot.stalls.fetch_add(1, std::memory_order_relaxed);
    slot.stall_seconds.fetch_add(stall, std::memory_order_relaxed);
  }
  if (region.fill_.valid()) {
    // Whatever part of the modeled transfer we did NOT stall for was hidden
    // behind other work -- that is the win the async engine exists for.
    const double duration =
        region.fill_.done_time() - region.fill_.start_time();
    async_counters_.overlap_seconds.fetch_add(std::max(0.0, duration - stall),
                                              std::memory_order_relaxed);
    region.fill_.join();
    region.fill_.reset();
  }
  region.ready_at_ = 0.0;
  retire_transfers();
  CA_AUDIT(*this);
}

void DataManager::retire_transfers() {
  const double now = clock_.now();
  // Pull retirees out of the registry under the lock, then join their real
  // copies outside it: a registry entry must never outlive its join (the
  // regions could be freed the moment the entry is gone), but the leaf lock
  // must not be held across a blocking join either -- so entries leave the
  // registry and are joined before this function returns control to code
  // that could free them.
  std::vector<mem::Transfer> retired;
  {
    sync::lock lock(inflight_mu_);
    std::size_t kept = 0;
    for (auto& t : inflight_) {
      if (t.transfer.done_time() <= now) {
        retired.push_back(std::move(t.transfer));
        async_counters_.retired.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (&inflight_[kept] != &t) inflight_[kept] = std::move(t);
      ++kept;
    }
    inflight_.resize(kept);
  }
  for (const auto& t : retired) t.join();
  CA_AUDIT(*this);
}

void DataManager::drain_transfers() {
  engine_.drain();
  retire_transfers();
  CA_AUDIT(*this);
}

void DataManager::link(Region& attached, Region& orphan) {
  {
    sync::lock lock(objects_mu_);
    Object* object = attached.parent();
    if (object == nullptr) {
      throw UsageError("link: first region is not attached to an object");
    }
    if (orphan.parent() != nullptr) {
      throw UsageError("link: second region is already attached to an object");
    }
    if (orphan.size() < object->size()) {
      throw UsageError("link: region is smaller than the object");
    }
    if (object->region_on(orphan.device()) != nullptr) {
      throw UsageError("link: object already has a region on that device");
    }
    if (orphan.tenant() != object->tenant()) {
      throw UsageError("link: region and object belong to different tenants");
    }
    orphan.parent_ = object;
    object->regions_[orphan.device().value] = &orphan;
  }
  CA_AUDIT(*this);
}

void DataManager::unlink(Region& region) {
  {
    sync::lock lock(objects_mu_);
    Object* object = region.parent();
    if (object == nullptr) {
      throw UsageError("unlink: region is not attached to an object");
    }
    if (object->primary() == &region) {
      throw UsageError("unlink: cannot unlink the primary region");
    }
    detach(region);
  }
  CA_AUDIT(*this);
}

Region* DataManager::getlinked(const Region& region,
                               sim::DeviceId dev) const noexcept {
  const Object* object = region.parent();
  if (object == nullptr) return nullptr;
  return object->region_on(dev);
}

bool DataManager::evictfrom(sim::DeviceId dev, std::size_t start_offset,
                            std::size_t size,
                            const std::function<bool(Region&)>& evict,
                            TenantId requester) {
  CA_CHECK(evict != nullptr, "evictfrom requires an eviction callback");
  auto& h = heap(dev);
  TenantSlot& slot = tenant_slot(requester);
  std::size_t align = 0;
  std::size_t capacity = 0;
  {
    sync::lock heap_lock(heap_mu_);
    align = h.alloc->alignment();
    capacity = h.alloc->capacity();
  }
  size = util::align_up(size, align);
  if (size > capacity) return false;

  std::size_t cursor =
      std::min(util::align_down(start_offset, align), capacity - size);
  const std::size_t initial = cursor;
  bool wrapped = false;

  for (;;) {
    CA_AUDIT(*this);
    // Candidate scan under heap_mu_: the cookie Region of any allocated
    // block is live and its identity fields are stable while the heap lock
    // is held, because every release path frees the block under
    // objects_mu_ -> heap_mu_ and destroys the Region only after those
    // locks drop.  Find the first live block intersecting the window
    // [cursor, cursor + size).
    std::optional<std::size_t> blocked;
    Region* region = nullptr;
    std::size_t block_end = 0;
    TenantId victim;
    {
      sync::lock heap_lock(heap_mu_);
      h.alloc->for_blocks_from(cursor, [&](const mem::FreeListAllocator::
                                               BlockView& b) {
        if (b.offset >= cursor + size) return false;
        if (b.allocated) {
          blocked = b.offset;
          return false;
        }
        return true;
      });
      if (blocked) {
        region = static_cast<Region*>(h.alloc->cookie(*blocked));
        CA_CHECK(region != nullptr, "heap block without an owning region");
        block_end = *blocked + h.alloc->block_size(*blocked);
        victim = region->tenant();
      }
    }
    if (!blocked) return true;  // window is entirely free (and coalesced)

    bool relocated = false;
    if (victim == requester) {
      // The callback runs with no lock held (it re-enters allocate / free /
      // copyto).  `region` stays valid: it belongs to `requester`, whose
      // own operations are serial with this call.
      const ScopedReleaseOp op("evictfrom");
      relocated = evict(*region);
    } else {
      // Tenant isolation -- a foreign tenant's live storage is never
      // handed to the callback (the owner could be using it concurrently,
      // and only its own policy may displace it).  Treated as a refusal,
      // and counted: a tenant whose reclaim scans keep bouncing off
      // foreign storage is starving, and the counter is what makes that
      // visible (tenant_stats().evictions_refused).
      slot.evictions_refused.fetch_add(1, std::memory_order_relaxed);
    }

    if (relocated) {
      // The callback claims the region was relocated and freed; verify so a
      // misbehaving policy cannot spin us forever.
      bool still_there = false;
      {
        sync::lock heap_lock(heap_mu_);
        still_there = h.alloc->is_allocated(*blocked) &&
                      h.alloc->cookie(*blocked) == region;
      }
      if (still_there) {
        throw UsageError(
            "evictfrom: eviction callback returned success without freeing "
            "the region");
      }
      slot.evictions.fetch_add(1, std::memory_order_relaxed);
      continue;  // re-examine the same window
    }

    // Refused (pinned object, foreign tenant): restart the search past this
    // block.
    std::size_t next = block_end;
    if (next + size > capacity) {
      if (wrapped) return false;
      wrapped = true;
      next = 0;
    }
    if (wrapped && next >= initial) return false;
    cursor = next;
  }
}

// --- Tenant functions -------------------------------------------------------

TenantId DataManager::register_tenant(std::string name) {
  sync::lock lock(tenants_mu_);
  if (tenant_count_ >= kMaxTenants) {
    throw UsageError("register_tenant: tenant slots exhausted");
  }
  const TenantId id{static_cast<std::uint32_t>(tenant_count_++)};
  tenant_names_[id.value] = std::move(name);
  return id;
}

void DataManager::set_tenant_quota(TenantId tenant, sim::DeviceId dev,
                                   std::size_t bytes) {
  CA_CHECK(dev.value < heaps_.size(), "unknown device id");
  TenantSlot& slot = tenant_slot(tenant);
  // A quota below what is already resident would put the tenant in
  // immediate overrun (audit invariant dm.tenant.quota); shrink only after
  // the tenant has drained below the new bound.
  if (bytes != 0) {
    CA_CHECK(bytes >= slot.resident[dev.value].load(std::memory_order_relaxed),
             "tenant quota set below current residency");
  }
  slot.quota[dev.value].store(bytes, std::memory_order_relaxed);
}

std::size_t DataManager::tenant_quota(TenantId tenant,
                                      sim::DeviceId dev) const {
  CA_CHECK(dev.value < heaps_.size(), "unknown device id");
  return tenant_slot(tenant).quota[dev.value].load(std::memory_order_relaxed);
}

TenantStats DataManager::tenant_stats(TenantId tenant) const {
  const TenantSlot& slot = tenant_slot(tenant);
  TenantStats s;
  for (std::size_t d = 0; d < TenantStats::kMaxDevices; ++d) {
    s.resident[d] = slot.resident[d].load(std::memory_order_relaxed);
  }
  s.allocations = slot.allocations.load(std::memory_order_relaxed);
  s.frees = slot.frees.load(std::memory_order_relaxed);
  s.evictions = slot.evictions.load(std::memory_order_relaxed);
  s.evictions_refused =
      slot.evictions_refused.load(std::memory_order_relaxed);
  s.quota_denials = slot.quota_denials.load(std::memory_order_relaxed);
  s.stalls = slot.stalls.load(std::memory_order_relaxed);
  s.stall_seconds = slot.stall_seconds.load(std::memory_order_relaxed);
  return s;
}

// --- Device functions -------------------------------------------------------

DataManager::DeviceStats DataManager::device_stats(sim::DeviceId dev) const {
  const auto& h = heap(dev);
  DeviceStats out;
  {
    sync::lock heap_lock(heap_mu_);
    out.alloc = h.alloc->stats();
  }
  for (std::size_t t = 0; t < kMaxTenants; ++t) {
    out.tenant_resident[t] =
        tenants_[t].resident[dev.value].load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t DataManager::capacity(sim::DeviceId dev) const {
  sync::lock heap_lock(heap_mu_);
  return heap(dev).alloc->capacity();
}

std::size_t DataManager::resident_bytes() const {
  sync::lock heap_lock(heap_mu_);
  std::size_t total = 0;
  for (const auto& h : heaps_) total += h->alloc->allocated_bytes();
  return total;
}

void DataManager::defragment(sim::DeviceId dev) {
  // Compaction memmoves live regions: no mover thread may still be touching
  // the arena.  Join every in-flight real copy first -- drain blocks, so it
  // must happen before any lock.  Defragment is a step-boundary op: the
  // caller guarantees no concurrent *data-path* traffic targets this device
  // (metadata ops -- allocate / free / evictfrom from other tenants --
  // serialize on the locks below and are fully safe).
  engine_.drain();
  auto& h = heap(dev);
  {
    sync::lock lock(objects_mu_);
    sync::lock heap_lock(heap_mu_);

    // Window the audit invariant "no pinned object on a defragmenting
    // device": set for the whole compaction (including the throw path -- a
    // mid-defragment audit must see it), cleared on every exit.
    struct DefragWindow {
      std::atomic<int>& slot;
      ~DefragWindow() { slot.store(-1, std::memory_order_relaxed); }
    } window{defragmenting_};
    defragmenting_.store(static_cast<int>(dev.value),
                         std::memory_order_relaxed);

    // Gather live regions in address order; refuse if any is pinned (its
    // kernel holds a raw pointer into the arena).
    std::vector<Region*> live;
    for (const auto& b : h.alloc->blocks()) {
      if (!b.allocated) continue;
      auto* region = static_cast<Region*>(b.cookie);
      CA_CHECK(region != nullptr, "heap block without an owning region");
      if (region->parent() != nullptr && region->parent()->pinned()) {
        throw UsageError("defragment: device holds a pinned region");
      }
      live.push_back(region);
    }

    auto fresh = std::make_unique<mem::FreeListAllocator>(
        h.arena.size(), h.alloc->alignment());
    std::size_t moved = 0;
    for (Region* region : live) {
      const auto new_offset = fresh->allocate(region->size());
      CA_CHECK(new_offset.has_value(),
               "defragment: compacted heap cannot hold its own contents");
      CA_CHECK(*new_offset <= region->offset(),
               "defragment: compaction moved a region to a higher address");
      if (*new_offset != region->offset()) {
        util::move_bytes(h.arena.at(*new_offset),
                         h.arena.at(region->offset()), region->size(),
                         "DataManager::defragment");
        moved += region->size();
        // The region's bytes moved: every raw pointer extracted before this
        // point is invalid.  Advance the generation so ca::ptrprov flags
        // any later use as use-after-relocate naming this site.
        ++region->generation_;
        ptrprov::on_region_mutate(region, region->generation_, "defragment",
                                  std::source_location::current());
      }
      region->offset_ = *new_offset;
      region->data_ = h.arena.at(*new_offset);
      fresh->set_cookie(*new_offset, region);
    }
    h.alloc = std::move(fresh);

    if (moved > 0) {
      // Compaction is same-device traffic: one read + one write per byte.
      const auto& spec = platform_.spec(dev);
      const std::size_t t = engine_.threads_for(moved);
      const double bw =
          std::min(spec.read_bw.at(t), spec.write_curve(true).at(t));
      clock_.advance(static_cast<double>(moved) / bw,
                     sim::TimeCategory::kOther);
      counters_.record_read(dev, moved);
      counters_.record_write(dev, moved);
    }
  }
  CA_AUDIT(*this);
}

void DataManager::for_each_object(
    const std::function<void(const Object&)>& fn) const {
  for (const auto& [ptr, owned] : objects_) fn(*owned);
}

void DataManager::for_each_region(
    const std::function<void(const Region&)>& fn) const {
  for (const auto& [ptr, owned] : regions_) fn(*owned);
}

bool DataManager::owns_region(const Region* region) const noexcept {
  sync::lock lock(objects_mu_);
  return regions_.find(const_cast<Region*>(region)) != regions_.end();
}

}  // namespace ca::dm
