/**
 * @file
 * The one artifact I/O path of the command-line tools (DESIGN.md §15,
 * "Artifact I/O contract"): "-" means stdout, a failed open, write,
 * flush or close is an error, and every error carries the exit code it
 * maps to. The stats-operand loader lives next to loadBundle in
 * report/bundle.hh.
 */

#ifndef TLR_SIM_FILEIO_HH
#define TLR_SIM_FILEIO_HH

#include <string>

namespace tlr
{

/** Exit status of tlrquery, tlrstat and tlrreport. tlrsim keeps its
 *  own 2 (invalid) and 3 (not completed) and exits 1 on a usage error
 *  or a failed write. */
enum ExitCode : int
{
    ExitOk = 0,
    ExitUsage = 1,     ///< bad flags, or a file that cannot be read or written
    ExitRejected = 2,  ///< input read but refused (corrupt, foreign schema)
    ExitThreshold = 3, ///< a diff or trend crossed its threshold
};

/** A failed artifact read, write or load; true when something failed. */
struct ArtifactError
{
    int exitCode = ExitOk;
    std::string message;

    explicit operator bool() const { return exitCode != ExitOk; }
};

/** Print "TOOL: message" on stderr. @return the error's exit code. */
int reportError(const char *tool, const ArtifactError &e);

/** Read all of @p path into @p out (exit 1 when that fails). */
[[nodiscard]] ArtifactError readFile(const std::string &path,
                                     std::string &out);

/** Write @p text to @p path, or to stdout when @p path is "-" (exit 1
 *  when the open, write, flush or close fails). */
[[nodiscard]] ArtifactError writeFile(const std::string &path,
                                      const std::string &text);

bool isDirectory(const std::string &path);

/** Match `--name=value` in @p arg; on a match store the value. */
bool parseFlag(const char *arg, const char *name, std::string &out);

/** Parse a non-negative percentage spelled `PCT` or `PCT%`. */
[[nodiscard]] bool parsePercent(std::string text, double &out);

} // namespace tlr

#endif // TLR_SIM_FILEIO_HH
