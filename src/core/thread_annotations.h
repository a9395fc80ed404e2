/**
 * @file
 * Clang thread-safety-analysis attribute macros (CNV_CAPABILITY,
 * CNV_GUARDED_BY, CNV_REQUIRES, ...). Under Clang they expand to the
 * `thread_safety` attributes so `-Wthread-safety` can prove lock
 * discipline at compile time; under every other compiler they expand
 * to nothing (tests/sim/test_thread_annotations.cc pins that).
 *
 * The annotations are only meaningful on capability types that carry
 * them — the standard library mutexes are unannotated on libstdc++ —
 * so all lock-discipline-checked code uses the annotated wrappers in
 * core/sync.h (`core::Mutex`, `core::MutexLock`) instead of
 * `std::mutex` / `std::lock_guard`. Usage and how to read the
 * resulting diagnostics: docs/development.md, "Static analysis".
 *
 * Layering: core is the bottom module, so this header includes
 * nothing from src/ (tools/check_layering.py).
 */

#ifndef CNV_CORE_THREAD_ANNOTATIONS_H
#define CNV_CORE_THREAD_ANNOTATIONS_H

#if defined(__clang__) && (!defined(SWIG))
#define CNV_THREAD_ANNOTATION(x) __attribute__((x))
#define CNV_THREAD_SAFETY_ENABLED 1
#else
#define CNV_THREAD_ANNOTATION(x) // no-op outside Clang
#define CNV_THREAD_SAFETY_ENABLED 0
#endif

/** Marks a type as a capability (a lock) the analysis can track. */
#define CNV_CAPABILITY(x) CNV_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type that acquires a capability for its lifetime. */
#define CNV_SCOPED_CAPABILITY CNV_THREAD_ANNOTATION(scoped_lockable)

/** Data member readable/writable only while holding `x`. */
#define CNV_GUARDED_BY(x) CNV_THREAD_ANNOTATION(guarded_by(x))

/** Pointer member whose pointee is guarded by `x`. */
#define CNV_PT_GUARDED_BY(x) CNV_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function callable only while holding the listed capabilities. */
#define CNV_REQUIRES(...) \
    CNV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function that acquires the listed capabilities (and holds them
 *  on return). */
#define CNV_ACQUIRE(...) \
    CNV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function that releases the listed capabilities. */
#define CNV_RELEASE(...) \
    CNV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function that acquires the capability when it returns the first
 *  argument (`true`/`false`); further arguments name the capability,
 *  defaulting to `this`. All arguments pass through `__VA_ARGS__`
 *  (the Clang-docs/Abseil pattern) so the common one-argument form
 *  `CNV_TRY_ACQUIRE(true)` never leaves a trailing comma in the
 *  attribute list. */
#define CNV_TRY_ACQUIRE(...) \
    CNV_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function callable only while NOT holding the listed capabilities
 *  (deadlock documentation for lock-taking entry points). */
#define CNV_EXCLUDES(...) CNV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returning a reference to the capability guarding it. */
#define CNV_RETURN_CAPABILITY(x) \
    CNV_THREAD_ANNOTATION(lock_returned(x))

/** Opt a function out of the analysis (justify at the use site and
 *  in the docs/development.md suppression inventory). */
#define CNV_NO_THREAD_SAFETY_ANALYSIS \
    CNV_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // CNV_CORE_THREAD_ANNOTATIONS_H
