/**
 * @file
 * tlrstat — diff two simulator stats dumps.
 *
 * Compares two --stats-json (or BENCH_*.json) files, reporting every
 * numeric key whose value changed and flagging relative deltas above a
 * threshold. Exit status makes it usable as a CI perf gate:
 *
 *   0  compared cleanly, no threshold violations
 *   1  usage / IO error
 *   2  malformed input (JSON parse error, nesting deeper than the
 *      parser's depth limit), schema_version or timeline epoch_len
 *      mismatch (refuses to diff)
 *   3  at least one delta exceeded the threshold
 *
 * Usage: tlrstat [options] OLD.json NEW.json
 *   --threshold=PCT[%]   flag |delta| above PCT percent (default 20)
 *   --old-prefix=PATH    dotted path to the comparison root in OLD
 *   --new-prefix=PATH    dotted path to the comparison root in NEW
 *                        (--old-prefix also sets --new-prefix unless
 *                        the latter is given explicitly)
 *   --json               machine-readable diff document on stdout
 *                        (versioned: diffJsonSchemaVersion; one row
 *                        object per compared key incl. report-only
 *                        rows) instead of the human table; exit codes
 *                        are identical either way
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "metrics/statdiff.hh"
#include "sim/build_info.hh"
#include "sim/json.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: tlrstat [--threshold=PCT[%%]] [--old-prefix=PATH]\n"
        "               [--new-prefix=PATH] [--json] OLD.json NEW.json\n");
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** @return 0 on success, else the exit status: 1 when @p path cannot
 *  be read, 2 when its contents are not a JSON document. */
int
parseDoc(const std::string &path, tlr::JsonValue &out)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "tlrstat: cannot read %s\n", path.c_str());
        return 1;
    }
    std::string err;
    if (!tlr::parseJson(text, out, err)) {
        std::fprintf(stderr, "tlrstat: %s: %s\n", path.c_str(),
                     err.c_str());
        return 2;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    tlr::DiffOptions opt;
    bool newPrefixSet = false;
    bool jsonOut = false;
    std::string oldPath, newPath;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--threshold=", 0) == 0) {
            std::string v = arg.substr(12);
            if (!v.empty() && v.back() == '%')
                v.pop_back();
            char *end = nullptr;
            double pct = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || pct < 0) {
                std::fprintf(stderr, "tlrstat: bad threshold: %s\n",
                             arg.c_str());
                return 1;
            }
            opt.thresholdPct = pct;
        } else if (arg.rfind("--old-prefix=", 0) == 0) {
            opt.oldPrefix = arg.substr(13);
            if (!newPrefixSet)
                opt.newPrefix = opt.oldPrefix;
        } else if (arg.rfind("--new-prefix=", 0) == 0) {
            opt.newPrefix = arg.substr(13);
            newPrefixSet = true;
        } else if (arg == "--json") {
            jsonOut = true;
        } else if (arg == "--version") {
            std::printf("%s", tlr::versionString("tlrstat").c_str());
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "tlrstat: unknown option: %s\n",
                         arg.c_str());
            usage();
            return 1;
        } else if (oldPath.empty()) {
            oldPath = arg;
        } else if (newPath.empty()) {
            newPath = arg;
        } else {
            usage();
            return 1;
        }
    }
    if (oldPath.empty() || newPath.empty()) {
        usage();
        return 1;
    }

    tlr::JsonValue oldDoc, newDoc;
    if (int rc = parseDoc(oldPath, oldDoc))
        return rc;
    if (int rc = parseDoc(newPath, newDoc))
        return rc;

    opt.oldName = oldPath;
    opt.newName = newPath;
    tlr::DiffReport rep = tlr::diffStats(oldDoc, newDoc, opt);
    std::fputs(jsonOut ? tlr::renderDiffJson(rep, opt).c_str()
                       : tlr::renderDiff(rep, opt).c_str(),
               stdout);
    if (rep.schemaMismatch || rep.timelineEpochMismatch)
        return 2;
    if (!rep.error.empty())
        return 1;
    return rep.exceeded > 0 ? 3 : 0;
}
