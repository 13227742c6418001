// Clang thread-safety annotations (no-ops on other compilers).
//
// Annotate mutex-guarded members with CA_GUARDED_BY(mu_) and
// methods that must (not) hold a lock with CA_REQUIRES / CA_EXCLUDES;
// Clang then statically verifies the locking discipline under
// -Wthread-safety (wired as -Werror=thread-safety in the top-level
// CMakeLists.txt).  The annotated types must be capabilities:
// CA_CAPABILITY goes on lockable classes (our race::mutex shim carries it;
// std::mutex is recognized natively by libc++/libstdc++ headers on Clang).
//
// docs/CONCURRENCY.md keeps the human-readable map of which lock guards
// what; the annotations keep it honest.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define CA_TSA_HAS(x) __has_attribute(x)
#else
#define CA_TSA_HAS(x) 0
#endif

#if CA_TSA_HAS(guarded_by)
#define CA_TSA(x) __attribute__((x))
#else
#define CA_TSA(x)
#endif

#define CA_CAPABILITY(name) CA_TSA(capability(name))
#define CA_SCOPED_CAPABILITY CA_TSA(scoped_lockable)
#define CA_GUARDED_BY(mu) CA_TSA(guarded_by(mu))
#define CA_PT_GUARDED_BY(mu) CA_TSA(pt_guarded_by(mu))
#define CA_REQUIRES(...) CA_TSA(requires_capability(__VA_ARGS__))
#define CA_EXCLUDES(...) CA_TSA(locks_excluded(__VA_ARGS__))
#define CA_ACQUIRE(...) CA_TSA(acquire_capability(__VA_ARGS__))
#define CA_RELEASE(...) CA_TSA(release_capability(__VA_ARGS__))
#define CA_TRY_ACQUIRE(...) CA_TSA(try_acquire_capability(__VA_ARGS__))
#define CA_NO_THREAD_SAFETY_ANALYSIS CA_TSA(no_thread_safety_analysis)

// --- lock-hierarchy annotations (ca::lockdep's static half) -----------------
//
// Declare the sanctioned acquisition order next to each mutex:
//
//   sync::mutex mu_ CA_LEAF{CA_LOCK_CLASS("mem::CopyEngine::mu_")};
//   sync::mutex outer_ CA_ACQUIRED_BEFORE(inner_){...};
//
// CA_ACQUIRED_BEFORE maps to Clang's acquired_before attribute where it
// exists, so the in-source declarations are compiler-checked; CA_LEAF marks
// a mutex under which no other lock may be taken (no Clang analogue — it is
// a documentation token).  Both are parsed, byte-for-byte, by
// tools/ca_lint.py and cross-checked against docs/lock_hierarchy.json
// and against the runtime-observed graph, so an edge declared in only one
// place fails CI.  Gate per attribute: acquired_before is newer than
// guarded_by and absent in some Clang releases.
#if CA_TSA_HAS(acquired_before)
#define CA_ACQUIRED_BEFORE(...) __attribute__((acquired_before(__VA_ARGS__)))
#else
#define CA_ACQUIRED_BEFORE(...)
#endif
#define CA_LEAF
