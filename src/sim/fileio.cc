#include "sim/fileio.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <sys/stat.h>

namespace tlr
{

namespace
{

ArtifactError
ioError(const char *what, const std::string &path, int err)
{
    return {ExitUsage,
            std::string(what) + " '" + path + "': " + std::strerror(err)};
}

} // namespace

int
reportError(const char *tool, const ArtifactError &e)
{
    std::fprintf(stderr, "%s: %s\n", tool, e.message.c_str());
    return e.exitCode;
}

ArtifactError
readFile(const std::string &path, std::string &out)
{
    out.clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return ioError("cannot read", path, errno);
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const int err = std::ferror(f) ? errno : 0;
    std::fclose(f);
    return err ? ioError("cannot read", path, err) : ArtifactError{};
}

ArtifactError
writeFile(const std::string &path, const std::string &text)
{
    const bool toStdout = path == "-";
    std::FILE *f = toStdout ? stdout : std::fopen(path.c_str(), "wb");
    if (!f)
        return ioError("cannot open for writing", path, errno);
    bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
              std::fflush(f) == 0;
    int err = errno;
    if (!toStdout && std::fclose(f) != 0 && ok) {
        ok = false;
        err = errno;
    }
    return ok ? ArtifactError{}
              : ioError("write failed for", toStdout ? "stdout" : path, err);
}

bool
isDirectory(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool
parseFlag(const char *arg, const char *name, std::string &out)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    out = arg + n + 1;
    return true;
}

bool
parsePercent(std::string text, double &out)
{
    if (!text.empty() && text.back() == '%')
        text.pop_back();
    char *end = nullptr;
    const double pct = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(pct >= 0))
        return false;
    out = pct;
    return true;
}

} // namespace tlr
