/**
 * @file
 * Deterministic parallel runtime: a fixed-size worker pool plus the
 * parallelFor / parallelMapReduce helpers every multi-image and
 * multi-architecture loop in the simulator fans out over.
 *
 * Design rules (docs/architecture.md, "Threading model"):
 *
 *  - The calling thread always participates in draining its own
 *    batch, so nested parallel sections on one pool cannot deadlock
 *    and a 1-job pool degenerates to the serial loop.
 *  - parallelMapReduce commits results in submission-index order
 *    regardless of completion order, so any reduction — even a
 *    non-commutative one — produces bit-identical output for every
 *    job count.
 *  - Exceptions thrown by tasks are captured and the lowest-index
 *    one is rethrown after the batch drains (again independent of
 *    scheduling).
 *
 * This header and parallel.cc are the only places in the tree where
 * std::thread may appear (cnvlint's raw-thread rule); everything
 * else takes a ThreadPool & or uses the globalPool().
 */

#ifndef CNV_SIM_PARALLEL_H
#define CNV_SIM_PARALLEL_H

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "sim/logging.h"

namespace cnv::sim {

/**
 * Fixed-size worker pool executing index batches. A pool with
 * `jobs` total lanes spawns `jobs - 1` worker threads; the thread
 * calling forEach() is always the remaining lane.
 */
class ThreadPool
{
  public:
    /** @param jobs Total concurrency; <= 0 means defaultJobCount(). */
    explicit ThreadPool(int jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total lanes (workers + the participating caller). */
    int
    threadCount() const
    {
        return jobs_;
    }

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     * The caller claims tasks itself while waiting, so calling this
     * from inside a task (nested parallelism) is safe. Rethrows the
     * lowest-index task exception after the batch drains. Must not
     * be called while holding the pool's internal mutex (enforced by
     * the thread-safety analysis via CNV_EXCLUDES).
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &fn)
        CNV_EXCLUDES(mutex_);

  private:
    struct Batch;
    struct LaneMetrics;

    void workerLoop(int index) CNV_EXCLUDES(mutex_);
    /** Claim and run one task of `batch`, charging its wall time to
     *  `lane`'s telemetry counters; false when exhausted. */
    bool runOneTask(Batch &batch, const LaneMetrics &lane);

    std::vector<std::thread> workers_;
    core::Mutex mutex_;
    core::ConditionVariable wake_;
    std::deque<std::shared_ptr<Batch>> queue_ CNV_GUARDED_BY(mutex_);
    bool stop_ CNV_GUARDED_BY(mutex_) = false;
    int jobs_ = 1;
};

/** std::thread::hardware_concurrency(): 0 when the platform cannot
 *  tell. */
unsigned hardwareConcurrency();

/**
 * Default job count: the CNVSIM_JOBS environment variable when set
 * to a positive integer, otherwise hardwareConcurrency() (minimum 1).
 */
int defaultJobCount();

/**
 * Configure the process-wide job count used by globalPool(). Call
 * once at startup (the CLI's --jobs flag); replacing the pool while
 * parallel work is in flight is not supported. Fatal when jobs < 1.
 */
void setJobCount(int jobs);

/** The currently configured process-wide job count. */
int jobCount();

/** The process-wide pool (built lazily with jobCount() lanes). */
ThreadPool &globalPool();

/** Run fn(i) for i in [0, n) on `pool`; blocks until done. */
template <typename Fn>
void
parallelFor(ThreadPool &pool, std::size_t n, Fn &&fn)
{
    const std::function<void(std::size_t)> task(std::forward<Fn>(fn));
    pool.forEach(n, task);
}

/** parallelFor on the process-wide pool. */
template <typename Fn>
void
parallelFor(std::size_t n, Fn &&fn)
{
    parallelFor(globalPool(), n, std::forward<Fn>(fn));
}

/**
 * Map every index in [0, n) concurrently, then commit the results
 * serially in submission order: reduce(0, r0), reduce(1, r1), ...
 * The ordered commit is what makes every aggregate and report
 * bit-identical regardless of the job count.
 */
template <typename Map, typename Reduce>
void
parallelMapReduce(ThreadPool &pool, std::size_t n, Map &&map,
                  Reduce &&reduce)
{
    using Result = std::decay_t<std::invoke_result_t<Map &, std::size_t>>;
    std::vector<std::optional<Result>> results(n);
    parallelFor(pool, n,
                [&](std::size_t i) { results[i].emplace(map(i)); });
    for (std::size_t i = 0; i < n; ++i) {
        // parallelFor rethrows any task exception before we get
        // here, so every slot is populated; the check keeps the
        // optional access provably guarded (clang-tidy
        // bugprone-unchecked-optional-access) and turns a broken
        // invariant into a diagnosable panic instead of UB.
        if (!results[i])
            CNV_PANIC("parallelMapReduce: task {} committed no result", i);
        reduce(i, std::move(*results[i]));
    }
}

/** parallelMapReduce on the process-wide pool. */
template <typename Map, typename Reduce>
void
parallelMapReduce(std::size_t n, Map &&map, Reduce &&reduce)
{
    parallelMapReduce(globalPool(), n, std::forward<Map>(map),
                      std::forward<Reduce>(reduce));
}

} // namespace cnv::sim

#endif // CNV_SIM_PARALLEL_H
