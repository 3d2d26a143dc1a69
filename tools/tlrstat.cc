/**
 * @file
 * tlrstat — diff two simulator stats dumps.
 *
 * Compares two --stats-json (or BENCH_*.json) files, or the stats of
 * two run bundle directories, reporting every numeric key whose value
 * changed and flagging relative deltas above a threshold. Exit codes
 * and what each input rejects: DESIGN.md §15, "Artifact I/O
 * contract" (3 = at least one delta exceeded the threshold).
 *
 * Usage: tlrstat [options] OLD NEW
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
#include <string>

#include "metrics/statdiff.hh"
#include "report/bundle.hh"
#include "sim/build_info.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "usage: tlrstat [--threshold=PCT[%%]] [--old-prefix=PATH]\n"
        "               [--new-prefix=PATH] [--json] OLD NEW\n"
        "  OLD/NEW: a --stats-json file or a run bundle directory\n");
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
        std::string arg = argv[i], v;
        if (tlr::parseFlag(argv[i], "--threshold", v)) {
            if (!tlr::parsePercent(v, opt.thresholdPct)) {
                std::fprintf(stderr, "tlrstat: bad threshold: %s\n",
                             arg.c_str());
                return tlr::ExitUsage;
            }
        } else if (tlr::parseFlag(argv[i], "--old-prefix", v)) {
            opt.oldPrefix = v;
            if (!newPrefixSet)
                opt.newPrefix = opt.oldPrefix;
        } else if (tlr::parseFlag(argv[i], "--new-prefix", v)) {
            opt.newPrefix = v;
            newPrefixSet = true;
        } else if (arg == "--json") {
            jsonOut = true;
        } else if (arg == "--version") {
            std::printf("%s", tlr::versionString("tlrstat").c_str());
            return tlr::ExitOk;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return tlr::ExitOk;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "tlrstat: unknown option: %s\n",
                         arg.c_str());
            usage();
            return tlr::ExitUsage;
        } else if (oldPath.empty()) {
            oldPath = arg;
        } else if (newPath.empty()) {
            newPath = arg;
        } else {
            usage();
            return tlr::ExitUsage;
        }
    }
    if (oldPath.empty() || newPath.empty()) {
        usage();
        return tlr::ExitUsage;
    }

    tlr::JsonValue oldDoc, newDoc;
    if (auto e = tlr::loadStatsOperand(oldPath, oldDoc, opt.oldName))
        return tlr::reportError("tlrstat", e);
    if (auto e = tlr::loadStatsOperand(newPath, newDoc, opt.newName))
        return tlr::reportError("tlrstat", e);
    tlr::DiffReport rep = tlr::diffStats(oldDoc, newDoc, opt);
    if (auto e = tlr::writeFile("-", jsonOut ? tlr::renderDiffJson(rep, opt)
                                             : tlr::renderDiff(rep, opt)))
        return tlr::reportError("tlrstat", e);
    return rep.exitCode();
}
