// ca::lockdep — lock-order analysis for the ca::sync primitives, modeled
// on the Linux kernel's lockdep.
//
// Every `ca::sync::mutex` registers a *lock class* at its declaration site
// (the CA_LOCK_CLASS macro below); the runtime then maintains, per thread,
// the stack of held classes and, globally, the acquisition-order graph:
// an edge A -> B means "some thread acquired a B-class lock while holding
// an A-class lock", with the acquire site that created the edge kept as
// provenance.  Two detectors consume this state:
//
//   * cycle detection on every acquisition: if acquiring class B while
//     holding class A and the graph already contains a path B -> ... -> A,
//     the two chains can deadlock under an unlucky interleaving — a
//     structured LockdepReport names both chains with their sites.  Like
//     the kernel's lockdep, this flags the *potential* deadlock from
//     single-schedule evidence: the two orders never need to collide live.
//
//   * held-across-blocking: a lock held while the thread waits on a
//     condition variable (other than the one the wait releases), a
//     CompletionLatch, a Transfer::join(), or a thread join is reported
//     unless the class is explicitly waiver-listed.  This is what keeps
//     every class in docs/lock_hierarchy.json an honest leaf.
//
// The graph is global and *accumulates* across ca::race explorer
// schedules, so an ordering edge produced by one rare interleaving is
// still visible when tools/ca_lint.py diffs the dumped graph against
// the sanctioned hierarchy in docs/lock_hierarchy.json.  Reports, by
// contrast, are drained by the tests per schedule (take_reports), so a
// hazard is flagged in every schedule that executes it.
//
// Enabled in Debug and CA_RACE builds (CA_LOCKDEP_ENABLED, set by the
// top-level CMakeLists); everywhere else every hook compiles to nothing
// and CA_LOCK_CLASS expands to nullptr.  The subsystem depends on the C++
// standard library only: race/sync.hpp includes this header, so anything
// above it in the tree may not be referenced here.
#pragma once

#include <cstddef>

namespace ca::lockdep {

/// One registered lock class: a *name* shared by every mutex declared at
/// the same site (e.g. all `ThreadPool::mu_` instances are one class).
/// Instances live forever in the registry; pointers are stable identity.
struct ClassInfo;

}  // namespace ca::lockdep

#if defined(CA_LOCKDEP_ENABLED)

#include <atomic>
#include <cstdint>
#include <source_location>
#include <string>
#include <vector>

namespace ca::lockdep {

struct ClassInfo {
  std::string name;  ///< e.g. "dm::DataManager::inflight_mu_"
  std::string file;  ///< declaration site (registration call)
  unsigned line = 0;
  bool waive_blocking = false;  ///< may legitimately be held across blocking
  /// Acquisitions observed since the last reset_for_testing().  A class
  /// that is merely *registered* (its CA_LOCK_CLASS static ran) but never
  /// acquired by the sanctioned workload gives lockdep zero ordering
  /// evidence -- tools/ca_lint.py fails such classes as unexercised,
  /// so coverage claims rest on acquisitions, not on registration.
  std::atomic<std::uint64_t> acquires{0};
};

/// One frame of a lock chain in a report: the class plus the acquire site.
struct ChainLink {
  const ClassInfo* cls = nullptr;
  std::string site;  ///< "file:line" of the acquisition

  [[nodiscard]] std::string to_string() const;
};

/// A structured lockdep finding.
struct LockdepReport {
  enum class Kind : std::uint8_t {
    kOrderInversion = 0,     ///< cycle in the acquisition-order graph
    kHeldAcrossBlocking = 1, ///< lock held across a blocking operation
    kRecursiveClass = 2,     ///< same class acquired twice on one stack
  };

  Kind kind = Kind::kOrderInversion;
  /// kOrderInversion: the chain just observed (held -> acquiring).
  /// kHeldAcrossBlocking / kRecursiveClass: the held chain at the report.
  std::vector<ChainLink> chain;
  /// kOrderInversion only: the pre-existing conflicting path through the
  /// graph from the acquiring class back to the held class.
  std::vector<ChainLink> conflict;
  /// kHeldAcrossBlocking: the blocking operation ("mem::Transfer::join").
  std::string blocking_op;
  std::string blocking_site;

  [[nodiscard]] std::string to_string() const;
};

/// One edge of the acquisition-order graph, for dumps and tests.
struct EdgeInfo {
  std::string from;  ///< holder class name
  std::string to;    ///< acquired class name
  std::string site;  ///< acquire site that first created the edge
};

/// One observed lock-held-across-blocking occurrence (deduplicated by
/// class/op), for dumps and tests.  Sanctioned runs keep this list empty.
struct BlockingEdge {
  std::string cls;
  std::string op;
  std::string site;
};

/// Register (or look up) the lock class `name`.  Idempotent: the first
/// registration wins and later calls with the same name return the same
/// entry, so a class declared in a header is shared across translation
/// units and instances.  Thread-safe.
const ClassInfo* register_class(const char* name, const char* file,
                                unsigned line);

/// Mark `name`'s class as legitimately held across blocking operations
/// (the waiver list of docs/lock_hierarchy.json).  Registers the class if
/// it does not exist yet.
void waive_blocking(const char* name);

// --- hooks (called by the ca::sync shims) ----------------------------------

/// The calling thread acquired `mu` (class `cls`, may be nullptr for an
/// unnamed mutex).  Pushes the held stack, inserts the ordering edge from
/// the previous stack top, and reports order inversions / recursive
/// classes.  `trylock` acquisitions are pushed but add no ordering edge
/// (a failed trylock cannot deadlock).
void on_acquire(const void* mu, const ClassInfo* cls,
                const std::source_location& loc, bool trylock = false);

/// The calling thread released `mu`: remove it from the held stack.
void on_release(const void* mu);

/// The calling thread is about to block in `op` (latch wait, transfer
/// join, thread join).  Every held, non-waived lock is reported.
void on_blocking(const char* op, const std::source_location& loc);

/// The calling thread is about to wait on a condition variable that
/// atomically releases `mu`: every held, non-waived lock EXCEPT `mu`
/// itself is reported.
void on_cv_wait(const void* mu, const std::source_location& loc);

// --- findings / introspection ----------------------------------------------

/// Drain the accumulated reports (the graph is left intact).
std::vector<LockdepReport> take_reports();
[[nodiscard]] std::size_t report_count();

/// Snapshot of the acquisition-order graph / blocking occurrences.
[[nodiscard]] std::vector<EdgeInfo> edges();
[[nodiscard]] std::vector<BlockingEdge> blocking_edges();

/// Locks currently held by the calling thread (class names, bottom first).
[[nodiscard]] std::vector<std::string> held_classes();

/// Serialize classes + edges + blocking occurrences as JSON, the format
/// tools/ca_lint.py --lockdep-graph diffs against docs/lock_hierarchy.json.
[[nodiscard]] std::string dump_graph_json();

/// Drop every edge, blocking record and report.  Class registrations are
/// kept: CA_LOCK_CLASS statics cache ClassInfo pointers for the process
/// lifetime, so classes are never deallocated.  For tests that need a
/// clean graph (the sanctioned-workload dump, unit fixtures).
void reset_for_testing();

}  // namespace ca::lockdep

/// Names the lock class of a ca::sync::mutex at its declaration site:
///
///   sync::mutex mu_ CA_LEAF{CA_LOCK_CLASS("mem::CopyEngine::mu_")};
///
/// One registry entry per name; the static local keeps re-registration off
/// the construction hot path.
#define CA_LOCK_CLASS(name)                                              \
  ([]() -> const ::ca::lockdep::ClassInfo* {                             \
    static const ::ca::lockdep::ClassInfo* ca_lockdep_cls =              \
        ::ca::lockdep::register_class((name), __FILE__, __LINE__);       \
    return ca_lockdep_cls;                                               \
  }())

#define CA_LOCKDEP_ON_BLOCKING(op)                                       \
  ::ca::lockdep::on_blocking((op), std::source_location::current())

#else  // !CA_LOCKDEP_ENABLED --------------------------------------------------

#include <source_location>

namespace ca::lockdep {

/// Zero-overhead stubs: release builds carry no registry and no held
/// stacks, and every hook inlines to nothing (CA_LOCK_CLASS is a null
/// constant, so no class is ever registered either).
inline void waive_blocking(const char*) {}
inline void on_acquire(const void*, const ClassInfo*,
                       const std::source_location&, bool = false) {}
inline void on_release(const void*) {}
inline void on_blocking(const char*, const std::source_location&) {}
inline void on_cv_wait(const void*, const std::source_location&) {}

}  // namespace ca::lockdep

#define CA_LOCK_CLASS(name) (static_cast<const ::ca::lockdep::ClassInfo*>(nullptr))
#define CA_LOCKDEP_ON_BLOCKING(op) ((void)0)

#endif  // CA_LOCKDEP_ENABLED
