/**
 * @file
 * tlrreport — render run-ledger bundles as flight reports.
 *
 * Three modes over the src/report subsystem:
 *
 *   tlrreport BUNDLE_DIR              one run -> self-contained HTML
 *   tlrreport --diff A B              two runs -> comparison page
 *   tlrreport --trend LEDGER_DIR      whole ledger -> trajectory page
 *
 * The HTML goes to --out (default stdout); the human-readable digest
 * always goes to stderr so piping the page never mixes streams. Exit
 * codes, `-` and what each reader rejects: DESIGN.md §15, "Artifact
 * I/O contract" (3 = diff threshold exceeded or a trend regression).
 *
 * Byte-determinism contract: for the same simulation config and seed,
 * the emitted HTML is identical on any host — enforced by ctest
 * fixtures and the CI golden-report compare.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/statdiff.hh"
#include "report/bundle.hh"
#include "report/report.hh"
#include "sim/build_info.hh"

namespace
{

void
usage()
{
    std::fprintf(
        stderr,
        "tlrreport — flight reports from tlrsim run bundles\n"
        "\n"
        "  tlrreport BUNDLE_DIR [options]      single-run flight report\n"
        "  tlrreport --diff A B [options]      compare two runs (bundle\n"
        "                                      dirs or stats-json files)\n"
        "  tlrreport --trend LEDGER [options]  cross-run trajectory with\n"
        "                                      first-regressing-run per\n"
        "                                      metric\n"
        "\n"
        "  --out=FILE          write the HTML here (default '-', stdout)\n"
        "  --threshold=PCT[%%]  regression threshold for --diff/--trend\n"
        "                      (default 20)\n"
        "  --version           print build and schema versions\n"
        "\n"
        "exit codes: 0 clean; 1 usage/IO error; 2 rejected input;\n"
        "            3 diff threshold exceeded / trend regression\n");
}

int
runReport(const std::string &dir, const std::string &outPath)
{
    tlr::LoadedBundle b;
    if (auto e = tlr::loadBundle(dir, b))
        return tlr::reportError("tlrreport", e);
    if (auto e = tlr::writeFile(outPath, tlr::renderFlightReport(b)))
        return tlr::reportError("tlrreport", e);
    std::fprintf(stderr, "report: rendered bundle %s\n", b.name.c_str());
    return tlr::ExitOk;
}

int
runDiff(const std::string &oldPath, const std::string &newPath,
        const std::string &outPath, double thresholdPct)
{
    tlr::DiffOptions opt;
    opt.thresholdPct = thresholdPct;
    tlr::JsonValue oldDoc, newDoc;
    if (auto e = tlr::loadStatsOperand(oldPath, oldDoc, opt.oldName))
        return tlr::reportError("tlrreport", e);
    if (auto e = tlr::loadStatsOperand(newPath, newDoc, opt.newName))
        return tlr::reportError("tlrreport", e);
    tlr::DiffReport rep = tlr::diffStats(oldDoc, newDoc, opt);
    if (auto e = tlr::writeFile(outPath, tlr::renderDiffHtml(rep, opt)))
        return tlr::reportError("tlrreport", e);
    // The same text tlrstat prints, so CI logs read identically
    // whichever tool rendered the comparison.
    std::string text = tlr::renderDiff(rep, opt);
    std::fwrite(text.data(), 1, text.size(), stderr);
    return rep.exitCode();
}

int
runTrend(const std::string &ledgerDir, const std::string &outPath,
         double thresholdPct)
{
    if (!tlr::isDirectory(ledgerDir)) {
        std::fprintf(stderr, "tlrreport: '%s' is not a directory\n",
                     ledgerDir.c_str());
        return tlr::ExitUsage;
    }
    std::vector<tlr::LoadedBundle> runs;
    for (const std::string &dir : tlr::listLedger(ledgerDir)) {
        tlr::LoadedBundle b;
        if (auto e = tlr::loadBundle(dir, b))
            return tlr::reportError("tlrreport", e);
        runs.push_back(std::move(b));
    }
    tlr::TrendReport t = tlr::analyzeTrend(runs, thresholdPct);
    if (auto e = tlr::writeFile(outPath,
                                tlr::renderTrendHtml(t, thresholdPct)))
        return tlr::reportError("tlrreport", e);
    std::string text = tlr::trendSummaryText(t, thresholdPct);
    std::fwrite(text.data(), 1, text.size(), stderr);
    if (t.schemaMismatch)
        return tlr::ExitRejected;
    if (!t.error.empty())
        return tlr::ExitUsage;
    return t.regressed ? tlr::ExitThreshold : tlr::ExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "-";
    double thresholdPct = 20.0;
    bool diffMode = false, trendMode = false;
    std::vector<std::string> operands;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string val;
        if (std::strcmp(arg, "--help") == 0) {
            usage();
            return tlr::ExitOk;
        } else if (std::strcmp(arg, "--version") == 0) {
            std::fputs(tlr::versionString("tlrreport").c_str(), stdout);
            return tlr::ExitOk;
        } else if (std::strcmp(arg, "--diff") == 0) {
            diffMode = true;
        } else if (std::strcmp(arg, "--trend") == 0) {
            trendMode = true;
        } else if (tlr::parseFlag(arg, "--out", val)) {
            outPath = val;
        } else if (tlr::parseFlag(arg, "--threshold", val)) {
            if (!tlr::parsePercent(val, thresholdPct)) {
                std::fprintf(stderr,
                             "tlrreport: bad --threshold value '%s'\n",
                             val.c_str());
                return tlr::ExitUsage;
            }
        } else if (arg[0] == '-' && arg[1] == '-') {
            std::fprintf(stderr, "tlrreport: unknown option '%s'\n\n",
                         arg);
            usage();
            return tlr::ExitUsage;
        } else {
            operands.push_back(arg);
        }
    }

    if (diffMode && trendMode) {
        std::fprintf(stderr,
                     "tlrreport: --diff and --trend are exclusive\n");
        return tlr::ExitUsage;
    }
    if (diffMode) {
        if (operands.size() != 2) {
            std::fprintf(stderr,
                         "tlrreport: --diff needs exactly two runs\n\n");
            usage();
            return tlr::ExitUsage;
        }
        return runDiff(operands[0], operands[1], outPath, thresholdPct);
    }
    if (trendMode) {
        if (operands.size() != 1) {
            std::fprintf(
                stderr,
                "tlrreport: --trend needs one ledger directory\n\n");
            usage();
            return tlr::ExitUsage;
        }
        return runTrend(operands[0], outPath, thresholdPct);
    }
    if (operands.size() != 1) {
        usage();
        return tlr::ExitUsage;
    }
    return runReport(operands[0], outPath);
}
