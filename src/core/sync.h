/**
 * @file
 * Annotated synchronization primitives: thin wrappers over
 * `std::mutex` / `std::condition_variable_any` that carry the Clang
 * thread-safety attributes from core/thread_annotations.h, so
 * `-Wthread-safety` can prove which locks guard which state. The
 * standard library types themselves are unannotated on libstdc++,
 * which is why every lock-discipline-checked module (sim/parallel,
 * sim/metrics, timing/trace_cache, nn/network) holds a `core::Mutex`
 * rather than a bare `std::mutex`.
 *
 * Zero-overhead intent: `Mutex` is exactly a `std::mutex` and
 * `MutexLock` is the `std::lock_guard` idiom; the attributes vanish
 * outside Clang. Condition waits use `std::condition_variable_any`
 * over the `Mutex` directly — the analysis treats the capability as
 * held across `wait()`, which matches the caller-visible contract
 * (locked before, locked after).
 *
 * Like the rest of core it includes nothing from src/ outside core
 * (core is the bottom module in tools/check_layering.py).
 */

#ifndef CNV_CORE_SYNC_H
#define CNV_CORE_SYNC_H

#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.h"

namespace cnv::core {

/**
 * A `std::mutex` annotated as a thread-safety capability. Lock it
 * through MutexLock (preferred) or the annotated lock()/unlock()
 * when an RAII scope cannot express the protocol.
 */
class CNV_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /** Block until the capability is exclusively held. */
    void
    lock() CNV_ACQUIRE()
    {
        m_.lock();
    }

    /** Release the capability (must be held). */
    void
    unlock() CNV_RELEASE()
    {
        m_.unlock();
    }

    /** Acquire without blocking; true when the lock was taken. */
    bool
    try_lock() CNV_TRY_ACQUIRE(true)
    {
        return m_.try_lock();
    }

  private:
    std::mutex m_;
};

/**
 * RAII lock over a Mutex — `std::lock_guard` with the
 * scoped-capability annotation, so guarded members are provably
 * accessible for exactly the guard's lifetime.
 */
class CNV_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) CNV_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~MutexLock() CNV_RELEASE() { m_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &m_;
};

/**
 * Condition variable usable with core::Mutex. `wait(mutex)` expects
 * the mutex held (the analysis sees it held throughout, matching
 * the contract that `wait` returns with the lock re-acquired); wrap
 * the wait in the usual `while (!predicate)` loop.
 */
using ConditionVariable = std::condition_variable_any;

} // namespace cnv::core

#endif // CNV_CORE_SYNC_H
