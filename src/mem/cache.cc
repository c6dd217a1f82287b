#include "mem/cache.hh"

#include "common/logging.hh"

namespace hard
{

SetAssocCache::SetAssocCache(const std::string &name, const CacheConfig &cfg)
    : cfg_(cfg), index_(cfg, name.c_str()),
      lines_(cfg.numSets() * cfg.assoc), stats_(name)
{
}

std::pair<std::size_t, std::size_t>
SetAssocCache::setRange(Addr addr) const
{
    std::size_t first = index_.setIndex(addr) * cfg_.assoc;
    return {first, first + cfg_.assoc};
}

CacheLine *
SetAssocCache::findLine(Addr addr)
{
    auto [first, last] = setRange(addr);
    std::uint64_t tag = index_.tag(addr);
    for (std::size_t i = first; i < last; ++i) {
        if (lines_[i].valid() && lines_[i].tag == tag)
            return &lines_[i];
    }
    return nullptr;
}

const CacheLine *
SetAssocCache::findLine(Addr addr) const
{
    return const_cast<SetAssocCache *>(this)->findLine(addr);
}

std::optional<Eviction>
SetAssocCache::insert(Addr addr, CState st)
{
    hard_panic_if(st == CState::Invalid, "%s: filling line in Invalid",
                  stats_.name().c_str());
    hard_panic_if(findLine(addr) != nullptr,
                  "%s: double fill of line %llx", stats_.name().c_str(),
                  static_cast<unsigned long long>(cfg_.lineAddr(addr)));

    auto [first, last] = setRange(addr);
    // Prefer an invalid way; otherwise evict true-LRU.
    std::size_t victim = first;
    bool found_invalid = false;
    for (std::size_t i = first; i < last; ++i) {
        if (!lines_[i].valid()) {
            victim = i;
            found_invalid = true;
            break;
        }
        if (lines_[i].lastUse < lines_[victim].lastUse)
            victim = i;
    }

    std::optional<Eviction> evicted;
    if (!found_invalid) {
        Eviction ev;
        ev.lineAddr =
            index_.lineAddrOf(lines_[victim].tag, index_.setIndex(addr));
        ev.dirty = lines_[victim].dirty();
        evicted = ev;
        ++evictions_;
        if (ev.dirty)
            ++writebacks_;
    }

    lines_[victim].tag = index_.tag(addr);
    lines_[victim].cstate = st;
    lines_[victim].lastUse = ++useClock_;
    ++fills_;
    return evicted;
}

void
SetAssocCache::touch(Addr addr)
{
    CacheLine *line = findLine(addr);
    hard_panic_if(line == nullptr, "%s: touch of absent line %llx",
                  stats_.name().c_str(),
                  static_cast<unsigned long long>(addr));
    touch(*line);
}

bool
SetAssocCache::invalidate(Addr addr)
{
    CacheLine *line = findLine(addr);
    if (line == nullptr)
        return false;
    line->cstate = CState::Invalid;
    ++invalidations_;
    return true;
}

void
SetAssocCache::setState(Addr addr, CState st)
{
    CacheLine *line = findLine(addr);
    hard_panic_if(line == nullptr, "%s: setState of absent line %llx",
                  stats_.name().c_str(),
                  static_cast<unsigned long long>(addr));
    hard_panic_if(st == CState::Invalid,
                  "%s: use invalidate() to drop lines",
                  stats_.name().c_str());
    line->cstate = st;
}

CState
SetAssocCache::state(Addr addr) const
{
    const CacheLine *line = findLine(addr);
    return line ? line->cstate : CState::Invalid;
}

void
SetAssocCache::invalidateAll()
{
    for (auto &line : lines_)
        line.cstate = CState::Invalid;
}

void
SetAssocCache::forEachLine(
    const std::function<void(Addr, const CacheLine &)> &cb) const
{
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        if (!lines_[i].valid())
            continue;
        std::uint64_t set = i / cfg_.assoc;
        cb(index_.lineAddrOf(lines_[i].tag, set), lines_[i]);
    }
}

std::size_t
SetAssocCache::validLines() const
{
    std::size_t n = 0;
    for (const auto &line : lines_)
        if (line.valid())
            ++n;
    return n;
}

} // namespace hard
