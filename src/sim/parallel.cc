/**
 * @file
 * ThreadPool implementation plus the process-wide pool
 * configuration (setJobCount / CNVSIM_JOBS). See parallel.h for the
 * determinism and nesting guarantees.
 *
 * Every lane (the participating caller and each worker) charges its
 * task wall time, idle time and task count to the process-wide
 * MetricsRegistry under `pool.<lane>.*`, so the hostProfile report
 * section can show per-worker utilization. All of it is gated on
 * metrics().enabled() and never affects scheduling or results.
 */

#include "sim/parallel.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>

#include "sim/logging.h"
#include "sim/metrics.h"

namespace cnv::sim {

/**
 * One forEach() call: a shared index range the caller and any
 * helping workers claim tasks from. The submitting thread waits on
 * `done` until every claimed task has finished, then rethrows the
 * lowest-index captured exception (deterministic regardless of
 * which thread hit it first).
 */
struct ThreadPool::Batch
{
    std::size_t n = 0;
    const std::function<void(std::size_t)> *fn = nullptr;
    std::atomic<std::size_t> next{0}; ///< next index to claim
    core::Mutex m;
    core::ConditionVariable done;
    std::size_t finished CNV_GUARDED_BY(m) = 0;
    std::size_t firstErrorIndex CNV_GUARDED_BY(m) =
        std::numeric_limits<std::size_t>::max();
    std::exception_ptr firstError CNV_GUARDED_BY(m);
};

/**
 * Pre-built metric names for one lane, so the per-task record is a
 * map update, not repeated string assembly. Workers additionally
 * count toward pool.stolenTasks (work not run by its submitter).
 */
struct ThreadPool::LaneMetrics
{
    LaneMetrics(const std::string &lane, bool isWorker)
        : busyKey("pool." + lane + ".busyNanos"),
          idleKey("pool." + lane + ".idleNanos"),
          tasksKey("pool." + lane + ".tasks"),
          worker(isWorker)
    {}

    std::string busyKey;
    std::string idleKey;
    std::string tasksKey;
    bool worker;
};

ThreadPool::ThreadPool(int jobs)
{
    jobs_ = jobs > 0 ? jobs : defaultJobCount();
    workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
    for (int i = 0; i + 1 < jobs_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        const core::MutexLock lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

bool
ThreadPool::runOneTask(Batch &batch, const LaneMetrics &lane)
{
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.n)
        return false;
    const std::uint64_t t0 = metrics().nowIfEnabled();
    std::exception_ptr error;
    try {
        (*batch.fn)(i);
    } catch (...) {
        error = std::current_exception();
    }
    if (t0 != 0) {
        MetricsRegistry &m = metrics();
        m.add(lane.busyKey, MetricsRegistry::nowNanos() - t0);
        m.add(lane.tasksKey, 1);
        if (lane.worker)
            m.add("pool.stolenTasks", 1);
    }
    {
        const core::MutexLock lock(batch.m);
        if (error && i < batch.firstErrorIndex) {
            batch.firstErrorIndex = i;
            batch.firstError = error;
        }
        ++batch.finished;
        if (batch.finished == batch.n)
            batch.done.notify_all();
    }
    return true;
}

void
ThreadPool::workerLoop(int index)
{
    const LaneMetrics lane("worker" + std::to_string(index),
                           /*isWorker=*/true);
    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            const core::MutexLock lock(mutex_);
            const std::uint64_t idle0 = metrics().nowIfEnabled();
            // Manual predicate loop: the analysis sees mutex_ held
            // across wait() (the condition variable re-acquires it
            // before returning), so the guarded reads below it are
            // provably locked.
            while (!stop_ && queue_.empty())
                wake_.wait(mutex_);
            if (idle0 != 0)
                metrics().add(lane.idleKey,
                              MetricsRegistry::nowNanos() - idle0);
            if (queue_.empty())
                return; // stop_ set and nothing left to help with
            batch = queue_.front();
        }
        if (!runOneTask(*batch, lane)) {
            // Exhausted: drop it from the queue if still at the front.
            const core::MutexLock lock(mutex_);
            if (!queue_.empty() && queue_.front() == batch)
                queue_.pop_front();
        }
    }
}

void
ThreadPool::forEach(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const LaneMetrics caller("caller", /*isWorker=*/false);
    if (jobs_ == 1 || n == 1) {
        const std::uint64_t t0 = metrics().nowIfEnabled();
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        if (t0 != 0) {
            MetricsRegistry &m = metrics();
            m.add(caller.busyKey, MetricsRegistry::nowNanos() - t0);
            m.add(caller.tasksKey, n);
        }
        return;
    }
    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->fn = &fn;
    {
        const core::MutexLock lock(mutex_);
        queue_.push_back(batch);
        metrics().gaugeMax("pool.queueDepthMax", queue_.size());
    }
    wake_.notify_all();
    // The submitter drains its own batch, so even if every worker is
    // busy elsewhere (or the pool is nested) this loop alone
    // guarantees completion.
    while (runOneTask(*batch, caller)) {
    }
    // The error slot is copied out under the batch mutex (previously
    // it was read back after the lock was dropped, which the
    // thread-safety analysis rightly rejects).
    std::exception_ptr firstError;
    {
        const core::MutexLock lock(batch->m);
        const std::uint64_t idle0 = metrics().nowIfEnabled();
        while (batch->finished != batch->n)
            batch->done.wait(batch->m);
        if (idle0 != 0)
            metrics().add(caller.idleKey,
                          MetricsRegistry::nowNanos() - idle0);
        firstError = batch->firstError;
    }
    {
        const core::MutexLock lock(mutex_);
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (*it == batch) {
                queue_.erase(it);
                break;
            }
        }
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

namespace {

std::atomic<int> g_jobCount{0}; ///< 0 = not yet resolved
core::Mutex g_poolMutex;
std::unique_ptr<ThreadPool> g_pool CNV_GUARDED_BY(g_poolMutex);

} // namespace

unsigned
hardwareConcurrency()
{
    return std::thread::hardware_concurrency();
}

int
defaultJobCount()
{
    // getenv is read-only here and nothing in the tree calls
    // setenv, so the races concurrency-mt-unsafe guards against
    // cannot occur (inventory: docs/development.md).
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *env = std::getenv("CNVSIM_JOBS")) {
        int value = 0;
        const char *end = env + std::strlen(env);
        const auto [ptr, ec] = std::from_chars(env, end, value);
        if (ec == std::errc() && ptr == end && value > 0)
            return value;
    }
    const unsigned hw = hardwareConcurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
setJobCount(int jobs)
{
    if (jobs < 1)
        CNV_FATAL("job count must be >= 1 (got {})", jobs);
    const core::MutexLock lock(g_poolMutex);
    g_jobCount.store(jobs, std::memory_order_relaxed);
    g_pool.reset(); // rebuilt lazily with the new lane count
}

int
jobCount()
{
    int value = g_jobCount.load(std::memory_order_relaxed);
    if (value == 0) {
        value = defaultJobCount();
        g_jobCount.store(value, std::memory_order_relaxed);
    }
    return value;
}

ThreadPool &
globalPool()
{
    const core::MutexLock lock(g_poolMutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(jobCount());
    return *g_pool;
}

} // namespace cnv::sim
