/**
 * @file
 * Binary on-disk trace format (tlrsim --trace-raw, tlrquery input).
 *
 * Layout: a 32-byte versioned header followed by recordCount
 * TraceRecords written verbatim (64 bytes each, host endianness).
 * recordCount and finalTick are back-patched when the run finishes.
 * The reader trusts neither blindly: open() requires the file size to
 * be exactly the header plus recordCount records (so a truncated file,
 * trailing garbage, or a crash mid-run that left the count at 0 is
 * refused), and forEach() refuses any record whose tick lies past
 * finalTick (so the header bounds what a replay can allocate), whose
 * tick goes backwards or seq does not increase, or whose kind or comp
 * lies outside its enum.
 *
 *   offset  size  field
 *        0     8  magic "TLRTRACE"
 *        8     4  version (currently 1)
 *       12     4  recordSize (sizeof(TraceRecord) == 64)
 *       16     8  recordCount
 *       24     8  finalTick (tick passed to TraceSink::finish)
 *
 * The writer is a TraceListener, so recording obeys the same
 * zero-overhead-off contract as every other trace consumer; an
 * optional TraceFilter thins the stream before it hits the disk.
 * The reader replays records through any TraceListener (explain
 * pipeline, lifecycle tracker) to reproduce online analyses offline.
 */

#ifndef TLR_EXPLAIN_RAWTRACE_HH
#define TLR_EXPLAIN_RAWTRACE_HH

#include <cstdio>
#include <functional>
#include <string>

#include "sim/build_info.hh"
#include "sim/fileio.hh"
#include "trace/filter.hh"
#include "trace/sink.hh"

namespace tlr
{

struct RawTraceHeader
{
    char magic[8] = {'T', 'L', 'R', 'T', 'R', 'A', 'C', 'E'};
    std::uint32_t version = rawTraceFormatVersion;
    std::uint32_t recordSize = sizeof(TraceRecord);
    std::uint64_t recordCount = 0;
    std::uint64_t finalTick = 0;
};

static_assert(sizeof(RawTraceHeader) == 32, "header layout is the ABI");

class RawTraceWriter : public TraceListener
{
  public:
    RawTraceWriter() = default;
    ~RawTraceWriter() override { close(); }
    RawTraceWriter(const RawTraceWriter &) = delete;
    RawTraceWriter &operator=(const RawTraceWriter &) = delete;

    /** @return empty string on success, else an error description. */
    std::string open(const std::string &path);

    /** Record only events matching @p f (copied; empty = everything). */
    void setFilter(const TraceFilter &f) { filter_ = f; }

    void onRecord(const TraceRecord &r) override;
    /** Back-patches the header and closes the file. */
    void finish(Tick now) override;
    void close();

    std::uint64_t written() const { return header_.recordCount; }

    /** Empty while every write, the header back-patch, the flush and
     *  the close have succeeded; else what failed. finish() is a
     *  TraceListener override and cannot return it. */
    const std::string &error() const { return error_; }

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    std::string error_;
    RawTraceHeader header_;
    TraceFilter filter_;
};

class RawTraceReader
{
  public:
    ~RawTraceReader() { close(); }

    /** Open @p path and check its header. The error carries the
     *  tools' exit code (DESIGN.md §15): ExitUsage when the file cannot
     *  be opened, read or sized, ExitRejected for a short header, bad
     *  magic, version/record-size skew, or a size that disagrees with
     *  the header's record count. */
    [[nodiscard]] ArtifactError load(const std::string &path);
    /** load() without the exit code. @return empty string on success,
     *  else the error description. */
    std::string open(const std::string &path) { return load(path).message; }
    void close();

    const RawTraceHeader &header() const { return header_; }

    /** Stream every record through @p fn in file order, stopping at
     *  the first record stamped past the header's finalTick, out of
     *  (tick, seq) order, or with a kind or comp outside its enum.
     *  @return empty string on success, else an error description. */
    std::string forEach(const std::function<void(const TraceRecord &)> &fn);

    /** Feed the whole file to a listener, then its finish() with the
     *  recorded finalTick — the offline mirror of a live run.
     *  @return forEach()'s error; finish() runs only on success. */
    std::string
    replay(TraceListener &l)
    {
        std::string err =
            forEach([&](const TraceRecord &r) { l.onRecord(r); });
        if (err.empty())
            l.finish(header_.finalTick);
        return err;
    }

  private:
    std::FILE *file_ = nullptr;
    std::string path_;
    RawTraceHeader header_;
};

} // namespace tlr

#endif // TLR_EXPLAIN_RAWTRACE_HH
