// dm::PinnedSpan: the sanctioned RAII accessor for an object's bytes, and
// the runtime half of the ca::ptrprov pin-discipline analysis.
//
// The paper's §III-C access model says: a kernel may hold a raw pointer
// from Region::data() only while the owning object is pinned, because
// evictfrom and defragment relocate unpinned regions at will.  PinnedSpan
// makes the discipline structural instead of conventional:
//
//   * construction (DataManager::access) pins the object FIRST — from that
//     point the primary cannot be displaced — then stalls for any pending
//     async fill and resolves the indirection once;
//   * every data() call is checked (Debug/CA_RACE builds) against the
//     provenance registry: a region whose generation advanced, whose
//     storage was freed, or whose pin was dropped under the span produces
//     a structured ProvenanceReport naming this span's acquire site and
//     the mutation that invalidated it;
//   * destruction unpins and retires the registry record; using the span
//     afterwards (a moved-from or reset span) is itself a report.
//
// In release builds the ptrprov hooks inline to nothing and data() is a
// plain pointer load — the "essentially zero overhead" indirection of the
// paper, verified by bench/micro_ptrprov.cpp.
//
// The bare `Region::data()` escape hatch remains for the DataManager's own
// copy/relocation machinery; the region-data-route lint rule confines it
// to the sanctioned sites listed in docs/pointer_provenance.json.
#pragma once

#include <cstddef>
#include <source_location>
#include <utility>

#include "dm/data_manager.hpp"
#include "ptrprov/ptrprov.hpp"
#include "util/error.hpp"

namespace ca::dm {

class PinnedSpan {
 public:
  /// An empty span: holds no pin; data() returns nullptr (and, under the
  /// analyzer, reports nothing — only a once-valid span can go stale).
  PinnedSpan() = default;

  PinnedSpan(PinnedSpan&& other) noexcept
      : dm_(std::exchange(other.dm_, nullptr)),
        object_(std::exchange(other.object_, nullptr)),
        region_(std::exchange(other.region_, nullptr)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        id_(std::exchange(other.id_, 0)) {}

  PinnedSpan& operator=(PinnedSpan&& other) noexcept {
    if (this != &other) {
      reset();
      dm_ = std::exchange(other.dm_, nullptr);
      object_ = std::exchange(other.object_, nullptr);
      region_ = std::exchange(other.region_, nullptr);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      id_ = std::exchange(other.id_, 0);
    }
    return *this;
  }

  PinnedSpan(const PinnedSpan&) = delete;
  PinnedSpan& operator=(const PinnedSpan&) = delete;

  ~PinnedSpan() { reset(); }

  /// Drop the pin (and the registry record) early.  Idempotent.
  void reset() {
    if (object_ != nullptr) {
      ptrprov::on_release(id_);
      dm_->unpin(*object_);
    }
    dm_ = nullptr;
    object_ = nullptr;
    region_ = nullptr;
    data_ = nullptr;
    size_ = 0;
    id_ = 0;
  }

  [[nodiscard]] bool valid() const noexcept { return object_ != nullptr; }

  /// The resolved pointer, provenance-checked on every call in analyzer
  /// builds; a plain load in release.
  [[nodiscard]] std::byte* data(
      std::source_location loc = std::source_location::current()) const {
    ptrprov::on_access(id_, object_ != nullptr ? object_->pin_count() : 0,
                       loc);
    return data_;
  }

  /// Bytes addressable through the span (the owning object's size).
  [[nodiscard]] std::size_t size_bytes() const noexcept { return size_; }

  [[nodiscard]] Object* object() const noexcept { return object_; }
  [[nodiscard]] Region* region() const noexcept { return region_; }

  /// Registry identity, for tests and audits.
  [[nodiscard]] ptrprov::SpanId span_id() const noexcept { return id_; }

 private:
  friend class DataManager;

  PinnedSpan(DataManager& dm, Object& object, Region& region,
             ptrprov::SpanId id) noexcept
      : dm_(&dm),
        object_(&object),
        region_(&region),
        data_(region.data()),
        size_(object.size()),
        id_(id) {}

  DataManager* dm_ = nullptr;
  Object* object_ = nullptr;
  Region* region_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  ptrprov::SpanId id_ = 0;
};

inline PinnedSpan DataManager::access(Object& object, bool write,
                                      std::source_location loc) {
  Region* primary = object.primary();
  if (primary == nullptr) {
    throw UsageError("access: object '" + object.name() +
                     "' has no primary region");
  }
  // Pin BEFORE waiting: from here the primary cannot be displaced, so the
  // pointer recorded below stays valid for the span's whole lifetime.
  pin(object);
  wait_ready(*primary);
  if (write) markdirty(*primary);
  const ptrprov::SpanId id = ptrprov::on_acquire(
      &object, primary, primary->generation(), object.pin_count(),
      object.name().c_str(), loc);
  return PinnedSpan(*this, object, *primary, id);
}

}  // namespace ca::dm
