#include "ref/engine.h"

#include "sim/logging.h"

namespace cnv::ref {

void
Engine::add(Clocked &component)
{
    components_.push_back(&component);
}

void
Engine::clear()
{
    components_.clear();
}

void
Engine::beginRegion(std::string name)
{
    endRegion();
    regions_.push_back({std::move(name), now_, now_});
    regionOpen_ = true;
}

void
Engine::endRegion()
{
    if (!regionOpen_)
        return;
    regions_.back().end = now_;
    regionOpen_ = false;
}

bool
Engine::allDone() const
{
    for (const Clocked *c : components_) {
        if (!c->done())
            return false;
    }
    return true;
}

void
Engine::step()
{
    for (Clocked *c : components_)
        c->evaluate(now_);
    for (Clocked *c : components_)
        c->commit(now_);
    ++now_;
}

Cycle
Engine::run(Cycle maxCycles)
{
    const Cycle start = now_;
    while (!allDone()) {
        if (now_ - start >= maxCycles)
            CNV_FATAL("engine '{}' exceeded cycle limit {} — deadlock?",
                      name_, maxCycles);
        step();
    }
    return now_ - start;
}

ScopedSpan::ScopedSpan(sim::TraceSink *sink, const Engine &engine,
                       std::uint32_t pid, std::uint32_t tid,
                       std::string name, std::string cat,
                       std::vector<sim::TraceArg> args)
    : sink_(sink),
      engine_(engine),
      pid_(pid),
      tid_(tid),
      name_(std::move(name)),
      cat_(std::move(cat)),
      args_(std::move(args)),
      begin_(engine.now())
{
}

void
ScopedSpan::end()
{
    if (ended_)
        return;
    ended_ = true;
    const Cycle now = engine_.now();
    if (sink_ && now > begin_) {
        sink_->complete(pid_, tid_, std::move(name_), std::move(cat_),
                        begin_, now - begin_, std::move(args_));
    }
}

} // namespace cnv::ref
