// ca::audit -- the invariant-audit subsystem.
//
// The paper's data manager (§III-C) is only correct while a strict set of
// invariants holds: the heap tiling, the free bins, the exactly-one-primary
// rule, the one-region-per-device rule, pin discipline, and dirty-bit
// synchronization between sibling regions.  The policy layer drives
// aggressive movement, eviction and compaction against exactly this
// pointer-rich mutable state, so violations corrupt silently unless they are
// caught mechanically.
//
// `verify()` re-derives every invariant from scratch by walking the public
// read-only views of the allocator / data manager, and returns a structured
// AuditReport listing each violation by stable name (catalogued with paper
// references in docs/INVARIANTS.md).  It never throws and never mutates.
// It is the only invariant checker: the structures carry no checks of
// their own, and tests assert a clean report (tests/audit_clean.hpp).
//
// Debug builds run the audit automatically at every DataManager mutation
// boundary via the CA_AUDIT() macro (see dm/audit_hook.hpp); install the
// hook with ScopedAbortHook.  Release builds can call verify() explicitly
// and inspect the report.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ca::mem {
class FreeListAllocator;
}
namespace ca::dm {
class DataManager;
}

namespace ca::audit {

/// One broken invariant.  `invariant` is a stable identifier from the
/// catalog in docs/INVARIANTS.md (e.g. "alloc.coalesced", "dm.primary");
/// `detail` says where and how it is broken.
struct Violation {
  std::string invariant;
  std::string detail;
};

/// The result of an audit: the full violation list, not just a bool, so a
/// caller (or a CI log) can see every broken invariant at once.
class AuditReport {
 public:
  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }

  /// True iff some violation carries exactly this invariant name.
  [[nodiscard]] bool has(std::string_view invariant) const noexcept;

  /// Human-readable multi-line rendering ("" when ok).
  [[nodiscard]] std::string to_string() const;

  void add(std::string invariant, std::string detail);

 private:
  std::vector<Violation> violations_;
};

/// Audit one allocator: tiling, alignment, coalescing, bin membership and
/// order, the bin and block-start bitmaps, boundary tags, counter accounting.
[[nodiscard]] AuditReport verify(const mem::FreeListAllocator& alloc);

/// Audit a data manager: every device allocator plus the cross-structure
/// invariants (cookie round-trips, primary uniqueness, device slots, pin
/// discipline, dirty-sibling consistency, async ready times, tenant
/// accounting).
[[nodiscard]] AuditReport verify(const dm::DataManager& dm);

/// While alive, CA_AUDIT() runs the full audit and, on the first violation,
/// prints the report to stderr and aborts.  Intended for tests and debug
/// sessions; the constructor replaces any previously-installed hook and the
/// destructor restores none (hooks do not stack).
class ScopedAbortHook {
 public:
  ScopedAbortHook();
  ~ScopedAbortHook();

  ScopedAbortHook(const ScopedAbortHook&) = delete;
  ScopedAbortHook& operator=(const ScopedAbortHook&) = delete;
};

}  // namespace ca::audit
