/**
 * @file
 * Cycle-stepped simulation engine.
 *
 * The engine advances a set of Clocked components in lock step. Each
 * cycle has two phases: evaluate() — combinational work, reading
 * only state committed in previous cycles — and commit() — latching
 * the new state. The split lets components communicate through
 * Latch objects without order dependence on the evaluation sequence.
 * It drives the structural pipelines only; no production path runs
 * on a clock.
 */

#ifndef CNV_REF_ENGINE_H
#define CNV_REF_ENGINE_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace_event.h"

namespace cnv::ref {

using sim::Cycle;

/** Interface for components driven by the engine's clock. */
class Clocked
{
  public:
    explicit Clocked(std::string name) : name_(std::move(name)) {}
    virtual ~Clocked() = default;

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /**
     * Combinational phase: compute this cycle's actions from state
     * committed in prior cycles. Must not expose new state to other
     * components until commit().
     */
    virtual void evaluate(Cycle cycle) = 0;

    /** Sequential phase: latch the state computed by evaluate(). */
    virtual void commit(Cycle cycle) = 0;

    /** True once the component has no further work. */
    virtual bool done() const = 0;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

/**
 * Registered (one-cycle) communication channel between components.
 * The producer writes during evaluate(); the consumer sees the value
 * only after the engine calls tick() on the latch at commit time.
 */
template <typename T>
class Latch
{
  public:
    /** Producer side: stage a value for the next cycle. */
    void
    push(T v)
    {
        staged_ = std::move(v);
        stagedValid_ = true;
    }

    /** Consumer side: is a value available this cycle? */
    bool valid() const { return currentValid_; }

    /** Consumer side: the value written in the previous cycle. */
    const T &peek() const { return current_; }

    /** Consumer side: consume the value (clears valid). */
    T
    pop()
    {
        currentValid_ = false;
        return std::move(current_);
    }

    /** Advance the latch one cycle (called at commit time). */
    void
    tick()
    {
        if (stagedValid_) {
            current_ = std::move(staged_);
            currentValid_ = true;
            stagedValid_ = false;
        }
    }

    /** True when the consumer has not yet consumed the current value. */
    bool stalled() const { return currentValid_ && stagedValid_; }

  private:
    T current_{};
    T staged_{};
    bool currentValid_ = false;
    bool stagedValid_ = false;
};

/**
 * A named measurement region on the engine's timeline: the half-open
 * cycle interval [begin, end) during which a phase of interest (one
 * layer, one window group, one warm-up) executed. Regions are what
 * per-layer experiment timelines are assembled from.
 */
struct Region
{
    std::string name;
    Cycle begin = 0;
    Cycle end = 0;

    Cycle cycles() const { return end - begin; }
};

/** Drives a set of Clocked components until all report done(). */
class Engine
{
  public:
    explicit Engine(std::string name) : name_(std::move(name)) {}

    /** Register a component; the engine does not take ownership. */
    void add(Clocked &component);

    /**
     * Deregister every component (the clock keeps its value). Lets
     * a caller reuse one engine — and one continuous timeline — for
     * phases built from different component sets.
     */
    void clear();

    /**
     * Open a measurement region at the current cycle, closing any
     * still-open region first. Statistics gathered per region are
     * typically reset here (StatGroup::resetAll) so each region
     * reports only its own activity.
     */
    void beginRegion(std::string name);

    /** Close the open region at the current cycle (no-op if none). */
    void endRegion();

    /** All closed regions, in begin order. */
    const std::vector<Region> &regions() const { return regions_; }

    /**
     * Run until every component is done or maxCycles elapse.
     *
     * @return Number of cycles executed.
     * @throws FatalError if the cycle limit is reached (deadlock guard).
     */
    Cycle run(Cycle maxCycles = 1ULL << 40);

    /** Current simulation time. */
    Cycle now() const { return now_; }

    /** Advance exactly one cycle (for fine-grained tests). */
    void step();

    /** True when every registered component is done. */
    bool allDone() const;

  private:
    std::string name_;
    std::vector<Clocked *> components_;
    Cycle now_ = 0;
    std::vector<Region> regions_;
    bool regionOpen_ = false;
};

/**
 * RAII duration span bound to an engine's clock: reads
 * engine.now() at construction and again at end() (or destruction)
 * and records one 'X' event covering the interval. Zero-length
 * spans are suppressed.
 */
class ScopedSpan
{
  public:
    /** @param sink May be null — the span then records nothing. */
    ScopedSpan(sim::TraceSink *sink, const Engine &engine,
               std::uint32_t pid, std::uint32_t tid, std::string name,
               std::string cat, std::vector<sim::TraceArg> args = {});

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan() { end(); }

    /** Close the span now (idempotent). */
    void end();

  private:
    sim::TraceSink *sink_;
    const Engine &engine_;
    std::uint32_t pid_;
    std::uint32_t tid_;
    std::string name_;
    std::string cat_;
    std::vector<sim::TraceArg> args_;
    Cycle begin_;
    bool ended_ = false;
};

} // namespace cnv::ref

#endif // CNV_REF_ENGINE_H
