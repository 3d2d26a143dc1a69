/**
 * @file
 * Seeded mutation tests for the artifact readers the tools call:
 * RawTraceReader (tlrquery), loadStatsOperand (tlrstat, tlrreport
 * --diff) and loadBundle (tlrreport). One small real run records a raw
 * trace, a stats JSON document and a run bundle; each case damages a
 * copy in a temp directory — truncation, byte flips, splices — and
 * requires the reader to refuse it as rejected input (exit 2).
 * Payload flips (addr, a0-a3) cannot be told from real data without a
 * checksum: those must load, replay and print without crashing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <stdlib.h>
#include <sys/stat.h>

#include "explain/explain.hh"
#include "explain/rawtrace.hh"
#include "harness/runner.hh"
#include "harness/scheme.hh"
#include "report/bundle.hh"
#include "sim/fileio.hh"
#include "timeline/timeline.hh"
#include "workloads/scenarios.hh"

using namespace tlr;

namespace
{

constexpr size_t kHeader = sizeof(RawTraceHeader);
constexpr size_t kRecord = sizeof(TraceRecord);
constexpr int kRounds = 32; ///< mutations per case

/** The recorded artifacts every case starts from. */
struct Originals
{
    std::string dir;    ///< scratch directory for this test binary
    std::string trace;  ///< raw trace bytes
    std::string stats;  ///< --stats-json document
    std::string bundle; ///< bundle entry directory
};

const Originals &
originals()
{
    static const Originals o = [] {
        Originals r;
        std::string tmpl = testing::TempDir() + "tlr_artifacts_XXXXXX";
        r.dir = ::mkdtemp(tmpl.data()) ? tmpl : testing::TempDir();
        const std::string tracePath = r.dir + "/orig.bin";

        MachineParams mp;
        mp.numCpus = 4;
        mp.spec = schemeSpecConfig(Scheme::BaseSleTlr);
        mp.explain = true;
        mp.timelineEpoch = 500;
        System sys(mp);
        RawTraceWriter writer;
        EXPECT_EQ(writer.open(tracePath), "");
        sys.addTraceListener(&writer);
        installWorkload(sys, makeReverseWriters(4, 8));
        EXPECT_TRUE(sys.run());
        EXPECT_EQ(writer.error(), "");
        EXPECT_FALSE(readFile(tracePath, r.trace));
        r.stats = sys.stats().dumpJson("  \"timeline\": " +
                                       sys.timeline()->json());

        BundleMeta meta;
        meta.workload = "reverse-writers";
        meta.scheme = "tlr";
        meta.cpus = 4;
        BundleArtifacts art;
        art.statsJson = r.stats;
        art.timelineCsv = sys.timeline()->csv();
        art.explainText = sys.explainer()->report();
        art.rawTracePath = tracePath;
        std::string err;
        r.bundle = writeRunBundle(r.dir + "/ledger", meta, art, err);
        EXPECT_NE(r.bundle, "") << err;
        return r;
    }();
    return o;
}

std::string
scratchFile(const std::string &name, const std::string &bytes)
{
    const std::string path = originals().dir + "/" + name;
    EXPECT_FALSE(writeFile(path, bytes));
    return path;
}

/** What tlrquery does with a trace: open, then replay every record
 *  through the explainer, the timeline and the record printer.
 *  @return the reader's error ("" when the file was accepted). */
std::string
replayTrace(const std::string &bytes)
{
    const std::string path = scratchFile("mutant.bin", bytes);
    RawTraceReader rd;
    std::string err = rd.open(path);
    if (!err.empty())
        return err;
    Explainer ex;
    EpochTimeline tl(500);
    std::string text;
    err = rd.forEach([&](const TraceRecord &r) {
        ex.onRecord(r);
        tl.onRecord(r);
        text += formatRecord(r);
    });
    if (!err.empty())
        return err;
    ex.finish(rd.header().finalTick);
    tl.finish(rd.header().finalTick);
    text += ex.report(ExplainMode::Txn) + ex.report(ExplainMode::Lock) +
            ex.report(ExplainMode::Cpu) + ex.dot() + ex.json() + tl.csv();
    EXPECT_FALSE(text.empty());
    return "";
}

std::uint64_t
recordCount()
{
    return (originals().trace.size() - kHeader) / kRecord;
}

/** Offset of field @p field in record @p n. */
size_t
at(std::uint64_t n, size_t field)
{
    return kHeader + n * kRecord + field;
}

std::uint64_t
load64(const std::string &b, size_t off)
{
    std::uint64_t v;
    std::memcpy(&v, b.data() + off, sizeof(v));
    return v;
}

void
store64(std::string &b, size_t off, std::uint64_t v)
{
    std::memcpy(b.data() + off, &v, sizeof(v));
}

/** Positions of JSON structure characters outside strings. */
std::vector<size_t>
structurePositions(const std::string &json)
{
    std::vector<size_t> out;
    bool inString = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
        } else if (c == '"') {
            inString = true;
        } else if (std::strchr("{}[]:,", c)) {
            out.push_back(i);
        }
    }
    return out;
}

ArtifactError
loadStatsBytes(const std::string &bytes)
{
    JsonValue doc;
    std::string name;
    return loadStatsOperand(scratchFile("mutant.json", bytes), doc, name);
}

} // namespace

TEST(ArtifactMutation, OriginalsLoad)
{
    const Originals &o = originals();
    ASSERT_GT(recordCount(), 100u);
    EXPECT_EQ(replayTrace(o.trace), "");
    EXPECT_FALSE(loadStatsBytes(o.stats));
    LoadedBundle b;
    ArtifactError e = loadBundle(o.bundle, b);
    EXPECT_FALSE(e) << e.message;
    EXPECT_TRUE(b.hasTrace);
    EXPECT_FALSE(b.timelineCsv.empty());
    EXPECT_FALSE(b.explainText.empty());

    // A bundle directory is a stats operand too.
    JsonValue doc;
    std::string name;
    EXPECT_FALSE(loadStatsOperand(o.bundle, doc, name));
    EXPECT_EQ(name, b.name);
    EXPECT_NE(doc.find("counters"), nullptr);
}

TEST(ArtifactMutation, TraceTruncationAndSplice)
{
    const std::string &orig = originals().trace;
    const std::uint64_t n = recordCount();
    std::mt19937_64 rng(1);
    for (int i = 0; i < kRounds; ++i) {
        // Any strict prefix disagrees with the header's record count.
        std::string cut = orig.substr(0, rng() % orig.size());
        EXPECT_NE(replayTrace(cut), "") << "cut to " << cut.size();

        // A record appended (or a partial one) does too.
        std::string grown = orig + orig.substr(at(rng() % n, 0),
                                               1 + rng() % kRecord);
        EXPECT_NE(replayTrace(grown), "") << "grown " << grown.size();

        // Record j copied over record i: seq stops increasing at i
        // (j < i) or at i + 1 (j > i).
        const std::uint64_t ri = rng() % n;
        std::uint64_t rj = rng() % n;
        if (rj == ri)
            rj = (ri + 1) % n;
        std::string spliced = orig;
        spliced.replace(at(ri, 0), kRecord, orig, at(rj, 0), kRecord);
        EXPECT_NE(replayTrace(spliced), "")
            << "record " << rj << " over " << ri;
    }
}

TEST(ArtifactMutation, TraceHeaderFlips)
{
    // magic, version, record size and record count: every bit counts.
    const std::string &orig = originals().trace;
    std::mt19937_64 rng(2);
    for (int i = 0; i < kRounds; ++i) {
        std::string m = orig;
        const size_t byte = rng() % 24;
        m[byte] = static_cast<char>(m[byte] ^ (1 << (rng() % 8)));
        EXPECT_NE(replayTrace(m), "") << "header byte " << byte;
    }
    // final_tick lowered below the last record's tick.
    std::string m = orig;
    store64(m, 24, load64(orig, at(recordCount() - 1, 0)) - 1);
    EXPECT_NE(replayTrace(m).find("past the header's final_tick"),
              std::string::npos);
}

TEST(ArtifactMutation, TraceRecordFieldMutations)
{
    const std::string &orig = originals().trace;
    const std::uint64_t n = recordCount();
    const std::uint64_t finalTick = load64(orig, 24);
    std::mt19937_64 rng(3);
    for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t r = 1 + rng() % (n - 1);

        std::string future = orig; // tick past final_tick
        store64(future, at(r, 0), finalTick + 1 + rng() % 1000);
        EXPECT_NE(replayTrace(future), "") << "record " << r;

        std::string backward = orig; // tick below its predecessor's
        const std::uint64_t prevTick = load64(orig, at(r - 1, 0));
        if (prevTick > 0) {
            store64(backward, at(r, 0), rng() % prevTick);
            EXPECT_NE(replayTrace(backward), "") << "record " << r;
        }

        std::string seq = orig; // seq not above its predecessor's
        const std::uint64_t prevSeq = load64(orig, at(r - 1, 56));
        store64(seq, at(r, 56), prevSeq - rng() % (prevSeq + 1));
        EXPECT_NE(replayTrace(seq), "") << "record " << r;

        std::string kind = orig; // kind / comp outside the enums
        kind[at(r, 9)] = static_cast<char>(
            numTraceEvents + rng() % (256 - numTraceEvents));
        EXPECT_NE(replayTrace(kind).find("outside the TraceEvent"),
                  std::string::npos);
        std::string comp = orig;
        comp[at(r, 8)] = static_cast<char>(
            numTraceComps + rng() % (256 - numTraceComps));
        EXPECT_NE(replayTrace(comp).find("outside the TraceEvent"),
                  std::string::npos);
    }
}

TEST(ArtifactMutation, TracePayloadFlipsLoadWithoutCrashing)
{
    // addr and a0-a3 (record bytes 16-55) carry free-form payload:
    // damage there is undetectable, but replay must survive it.
    const std::string &orig = originals().trace;
    const std::uint64_t n = recordCount();
    std::mt19937_64 rng(4);
    for (int i = 0; i < kRounds; ++i) {
        std::string m = orig;
        for (int f = 0; f < 16; ++f) {
            const size_t off = at(rng() % n, 16 + rng() % 40);
            m[off] = static_cast<char>(m[off] ^ (1 << (rng() % 8)));
        }
        EXPECT_EQ(replayTrace(m), "");
    }
}

TEST(ArtifactMutation, StatsJsonRejected)
{
    const std::string &orig = originals().stats;
    const std::vector<size_t> structure = structurePositions(orig);
    ASSERT_FALSE(structure.empty());
    const size_t lastBrace = orig.rfind('}');
    std::mt19937_64 rng(5);
    for (int i = 0; i < kRounds; ++i) {
        // A prefix that stops before the closing brace.
        ArtifactError cut = loadStatsBytes(orig.substr(0, rng() % lastBrace));
        EXPECT_EQ(cut.exitCode, ExitRejected) << cut.message;

        // '#' is never valid outside a string.
        std::string flipped = orig;
        flipped[structure[rng() % structure.size()]] = '#';
        EXPECT_EQ(loadStatsBytes(flipped).exitCode, ExitRejected);

        // Two documents spliced back to back.
        const size_t keep = lastBrace + 1 - rng() % 2;
        EXPECT_EQ(loadStatsBytes(orig.substr(0, keep) + orig).exitCode,
                  ExitRejected);
    }
    JsonValue doc;
    std::string name;
    EXPECT_EQ(loadStatsOperand(originals().dir + "/no_such.json", doc, name)
                  .exitCode,
              ExitUsage);
}

TEST(ArtifactMutation, BundleRejected)
{
    const std::string src = originals().bundle;
    std::string manifest;
    ASSERT_FALSE(readFile(src + "/manifest.json", manifest));
    const std::vector<size_t> structure = structurePositions(manifest);
    const size_t lastBrace = manifest.rfind('}');
    const char *members[] = {"stats.json", "timeline.csv", "explain.txt",
                             "trace.bin"};

    // A fresh copy of the bundle with @p file replaced by @p bytes, or
    // deleted when @p drop is set.
    int copies = 0;
    auto mutant = [&](const std::string &file, const std::string &bytes,
                      bool drop = false) {
        const std::string dir = originals().dir + "/mutant-bundle-" +
                                std::to_string(copies++);
        EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0);
        std::string text;
        EXPECT_FALSE(writeFile(dir + "/manifest.json", manifest));
        for (const char *m : members) {
            EXPECT_FALSE(readFile(src + "/" + m, text));
            EXPECT_FALSE(writeFile(dir + "/" + m, text));
        }
        if (drop)
            std::remove((dir + "/" + file).c_str());
        else
            EXPECT_FALSE(writeFile(dir + "/" + file, bytes));
        LoadedBundle b;
        return loadBundle(dir, b);
    };

    std::mt19937_64 rng(6);
    for (int i = 0; i < kRounds / 4; ++i) {
        EXPECT_EQ(mutant("manifest.json",
                         manifest.substr(0, rng() % lastBrace))
                      .exitCode,
                  ExitRejected);
        std::string flipped = manifest;
        flipped[structure[rng() % structure.size()]] = '#';
        EXPECT_EQ(mutant("manifest.json", flipped).exitCode,
                  ExitRejected);
        std::string stats;
        ASSERT_FALSE(readFile(src + "/stats.json", stats));
        EXPECT_EQ(mutant("stats.json", stats.substr(0, rng() % 64))
                      .exitCode,
                  ExitRejected);
    }

    // Schema: a foreign bundle version is refused.
    std::string foreign = manifest;
    const size_t pos = foreign.find("\"schema_version\": 1");
    ASSERT_NE(pos, std::string::npos);
    foreign.replace(pos, 19, "\"schema_version\": 7");
    ArtifactError e = mutant("manifest.json", foreign);
    EXPECT_EQ(e.exitCode, ExitRejected);
    EXPECT_NE(e.message.find("schema_version 7"), std::string::npos);

    // Every member the manifest lists must be present, by name.
    for (const char *file : members) {
        ArtifactError m = mutant(file, "", true);
        EXPECT_EQ(m.exitCode, ExitRejected) << file;
        EXPECT_NE(m.message.find(file), std::string::npos) << m.message;
    }

    // Without a manifest the directory is not a bundle at all.
    EXPECT_EQ(mutant("manifest.json", "", true).exitCode, ExitUsage);
}
