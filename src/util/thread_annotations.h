// Clang thread-safety annotation macros, compiled away everywhere except a
// clang build with -DA3CS_THREAD_SAFETY=ON (which adds -Wthread-safety).
//
// The annotations document — and, under clang, statically verify — which
// mutex guards which member: `std::deque<Task> queue_ A3CS_GUARDED_BY(mu_);`
// makes any unlocked access a compile error instead of a TSan-only find.
// Only the concurrency-bearing class is annotated (util::ThreadPool); the
// conc-lock-order lint family covers ordering across the rest of the tree.
#pragma once

#if defined(A3CS_THREAD_SAFETY) && defined(__clang__)
#define A3CS_TS_ATTR(x) __attribute__((x))
#else
#define A3CS_TS_ATTR(x)
#endif

#define A3CS_CAPABILITY(x) A3CS_TS_ATTR(capability(x))
#define A3CS_GUARDED_BY(x) A3CS_TS_ATTR(guarded_by(x))
#define A3CS_PT_GUARDED_BY(x) A3CS_TS_ATTR(pt_guarded_by(x))
#define A3CS_ACQUIRE(...) A3CS_TS_ATTR(acquire_capability(__VA_ARGS__))
#define A3CS_RELEASE(...) A3CS_TS_ATTR(release_capability(__VA_ARGS__))
#define A3CS_REQUIRES(...) A3CS_TS_ATTR(requires_capability(__VA_ARGS__))
#define A3CS_EXCLUDES(...) A3CS_TS_ATTR(locks_excluded(__VA_ARGS__))
#define A3CS_NO_THREAD_SAFETY_ANALYSIS A3CS_TS_ATTR(no_thread_safety_analysis)
