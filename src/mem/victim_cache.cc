#include "mem/victim_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tlr
{

CacheLine *
VictimCache::find(Addr line_addr)
{
    for (auto &l : entries_)
        if (isValidState(l.state) && l.addr == line_addr)
            return &l;
    return nullptr;
}

bool
VictimCache::insert(const CacheLine &line)
{
    if (entries_.size() >= capacity_)
        return false;
    entries_.push_back(line);
    return true;
}

void
VictimCache::erase(Addr line_addr)
{
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [line_addr](const CacheLine &l) {
                                      return l.addr == line_addr;
                                  }),
                   entries_.end());
}

} // namespace tlr
