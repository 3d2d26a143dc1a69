#include "explain/rawtrace.hh"

#include <cerrno>
#include <cstring>

namespace tlr
{

std::string
RawTraceWriter::open(const std::string &path)
{
    close();
    error_.clear();
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return "cannot open '" + path + "' for writing";
    path_ = path;
    header_ = RawTraceHeader{};
    if (std::fwrite(&header_, sizeof(header_), 1, file_) != 1) {
        close();
        return "cannot write header to '" + path + "'";
    }
    return "";
}

void
RawTraceWriter::onRecord(const TraceRecord &r)
{
    if (!file_)
        return;
    if (!filter_.empty() && !filter_.matches(r))
        return;
    if (std::fwrite(&r, sizeof(r), 1, file_) == 1)
        ++header_.recordCount;
}

void
RawTraceWriter::finish(Tick now)
{
    if (!file_)
        return;
    header_.finalTick = now;
    // ferror() also catches a record write that failed in onRecord.
    bool ok = std::fseek(file_, 0, SEEK_SET) == 0 &&
              std::fwrite(&header_, sizeof(header_), 1, file_) == 1 &&
              std::fflush(file_) == 0 && !std::ferror(file_);
    int err = ok ? 0 : errno;
    if (std::fclose(file_) != 0 && ok) {
        ok = false;
        err = errno;
    }
    file_ = nullptr;
    if (!ok)
        error_ = "write failed for '" + path_ + "': " + std::strerror(err);
}

void
RawTraceWriter::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

ArtifactError
RawTraceReader::load(const std::string &path)
{
    close();
    // A file that cannot be opened, read or sized is an I/O failure
    // (exit 1); one that reads but is not a whole trace is rejected
    // content (exit 2).
    auto fail = [&](int code, std::string msg) {
        close();
        return ArtifactError{code, std::move(msg)};
    };
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return fail(ExitUsage, "cannot open '" + path +
                                   "': " + std::strerror(errno));
    if (std::fread(&header_, sizeof(header_), 1, file_) != 1) {
        if (std::ferror(file_))
            return fail(ExitUsage, "cannot read '" + path +
                                       "': " + std::strerror(errno));
        return fail(ExitRejected,
                    "'" + path + "' is too short for a trace header");
    }
    static const char magic[8] = {'T', 'L', 'R', 'T', 'R', 'A', 'C', 'E'};
    if (std::memcmp(header_.magic, magic, sizeof(magic)) != 0)
        return fail(ExitRejected,
                    "'" + path + "' is not a TLR raw trace (bad magic)");
    if (header_.version != 1)
        return fail(ExitRejected,
                    "'" + path + "' has unsupported trace version " +
                        std::to_string(header_.version));
    if (header_.recordSize != sizeof(TraceRecord))
        return fail(ExitRejected,
                    "'" + path + "' was written with record size " +
                        std::to_string(header_.recordSize) +
                        ", expected " + std::to_string(sizeof(TraceRecord)));
    // The header's count must account for every byte: a short file
    // would silently replay a prefix, and extra bytes mean the count
    // was never back-patched or the file was appended to.
    if (std::fseek(file_, 0, SEEK_END) != 0)
        return fail(ExitUsage, "cannot seek in '" + path + "'");
    const long size = std::ftell(file_);
    const long body = size - static_cast<long>(sizeof(header_));
    const auto rec = static_cast<long>(sizeof(TraceRecord));
    if (body < 0 || body % rec != 0 ||
        static_cast<std::uint64_t>(body / rec) != header_.recordCount)
        return fail(ExitRejected,
                    "'" + path + "' is " + std::to_string(size) +
                        " bytes but its header says " +
                        std::to_string(header_.recordCount) +
                        " records (" + std::to_string(sizeof(header_)) +
                        " + count x " + std::to_string(sizeof(TraceRecord)) +
                        " bytes): truncated or trailing data");
    path_ = path;
    return {};
}

void
RawTraceReader::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

std::string
RawTraceReader::forEach(const std::function<void(const TraceRecord &)> &fn)
{
    if (!file_)
        return "no trace file open";
    std::fseek(file_, sizeof(RawTraceHeader), SEEK_SET);
    TraceRecord r, prev;
    for (std::uint64_t n = 0; n < header_.recordCount; ++n) {
        if (std::fread(&r, sizeof(r), 1, file_) != 1)
            return "'" + path_ + "' ends after " + std::to_string(n) +
                   " of " + std::to_string(header_.recordCount) +
                   " records";
        if (r.tick > header_.finalTick)
            return "'" + path_ + "' record " + std::to_string(n) +
                   " has tick " + std::to_string(r.tick) +
                   " past the header's final_tick " +
                   std::to_string(header_.finalTick);
        // A value no enumerator names is corruption, not a new event.
        if (static_cast<int>(r.kind) >= numTraceEvents ||
            static_cast<int>(r.comp) >= numTraceComps)
            return "'" + path_ + "' record " + std::to_string(n) +
                   " has kind " + std::to_string(static_cast<int>(r.kind)) +
                   " / comp " + std::to_string(static_cast<int>(r.comp)) +
                   ", outside the TraceEvent / TraceComp enums";
        // Deferral spans are service tick - defer tick: a tick that
        // goes backwards would wrap them.
        if (n > 0 && (r.tick < prev.tick || r.seq <= prev.seq))
            return "'" + path_ + "' record " + std::to_string(n) +
                   " (tick " + std::to_string(r.tick) + ", seq " +
                   std::to_string(r.seq) + ") is out of order after (" +
                   std::to_string(prev.tick) + ", " +
                   std::to_string(prev.seq) + ")";
        fn(r);
        prev = r;
    }
    return "";
}

} // namespace tlr
