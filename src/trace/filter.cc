#include "trace/filter.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace tlr
{

TraceClass
traceClassOf(TraceEvent e)
{
    if (e >= TraceEvent::TxnElide && e <= TraceEvent::TxnWrite)
        return TraceClass::Txn;
    if (e >= TraceEvent::CohMiss && e <= TraceEvent::CohFwd)
        return TraceClass::Coh;
    if (e >= TraceEvent::LineInstall && e <= TraceEvent::LineInval)
        return TraceClass::Line;
    return TraceClass::Mem;
}

const char *
traceClassName(TraceClass c)
{
    switch (c) {
      case TraceClass::Txn: return "Txn";
      case TraceClass::Coh: return "Coh";
      case TraceClass::Line: return "Line";
      case TraceClass::Mem: return "Mem";
    }
    return "?";
}

namespace
{

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 0);
    return end && *end == '\0';
}

} // namespace

bool
TraceFilter::matches(const TraceRecord &r) const
{
    if (r.tick < tickLo || r.tick > tickHi)
        return false;
    if (!cpus.empty() &&
        std::find(cpus.begin(), cpus.end(), r.cpu) == cpus.end())
        return false;
    if (!comps.empty() &&
        std::find(comps.begin(), comps.end(), r.comp) == comps.end())
        return false;
    if (!kinds.empty() &&
        std::find(kinds.begin(), kinds.end(), r.kind) == kinds.end())
        return false;
    if (!classes.empty() &&
        std::find(classes.begin(), classes.end(), traceClassOf(r.kind)) ==
            classes.end())
        return false;
    if (!addrs.empty() &&
        std::find(addrs.begin(), addrs.end(), r.addr) == addrs.end())
        return false;
    return true;
}

std::string
TraceFilter::parse(const std::string &spec)
{
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string term = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (term.empty())
            continue;
        size_t colon = term.find(':');
        if (colon == std::string::npos)
            return "term '" + term + "' has no key: prefix";
        std::string key = lower(term.substr(0, colon));
        std::string val = term.substr(colon + 1);
        if (key == "cpu") {
            std::uint64_t n;
            if (!parseU64(val, n))
                return "bad cpu '" + val + "'";
            cpus.push_back(static_cast<std::int16_t>(n));
        } else if (key == "comp") {
            std::string want = lower(val);
            bool found = false;
            for (int i = 0; i < numTraceComps; ++i) {
                auto c = static_cast<TraceComp>(i);
                if (lower(traceCompName(c)) == want) {
                    comps.push_back(c);
                    found = true;
                    break;
                }
            }
            if (!found)
                return "unknown comp '" + val +
                       "' (Spec|L1|Bus|Dir|Net)";
        } else if (key == "kind") {
            std::string want = lower(val);
            bool found = false;
            for (int i = 0; i < numTraceEvents; ++i) {
                auto k = static_cast<TraceEvent>(i);
                if (lower(traceEventName(k)) == want) {
                    kinds.push_back(k);
                    found = true;
                    break;
                }
            }
            if (!found)
                return "unknown kind '" + val +
                       "' (see trace event names, e.g. defer, "
                       "txn-restart)";
        } else if (key == "class") {
            std::string want = lower(val);
            if (want == "txn")
                classes.push_back(TraceClass::Txn);
            else if (want == "coh")
                classes.push_back(TraceClass::Coh);
            else if (want == "line")
                classes.push_back(TraceClass::Line);
            else if (want == "mem")
                classes.push_back(TraceClass::Mem);
            else
                return "unknown class '" + val + "' (Txn|Coh|Line|Mem)";
        } else if (key == "addr" || key == "lock" || key == "line") {
            std::uint64_t n;
            if (!parseU64(val, n))
                return "bad addr '" + val + "'";
            addrs.push_back(n);
        } else if (key == "tick") {
            size_t dash = val.find('-');
            if (dash == std::string::npos)
                return "tick wants LO-HI, got '" + val + "'";
            std::uint64_t lo, hi;
            if (!parseU64(val.substr(0, dash), lo) ||
                !parseU64(val.substr(dash + 1), hi) || hi < lo)
                return "bad tick range '" + val + "'";
            tickLo = lo;
            tickHi = hi;
        } else {
            return "unknown key '" + key +
                   "' (cpu|comp|kind|class|addr|tick)";
        }
    }
    return "";
}

} // namespace tlr
