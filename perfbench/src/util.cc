#include "util.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench
{

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
minOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (_s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    gate(std::isfinite(value), name + " is not a finite number");
    _metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
Report::gate(bool ok, const std::string &what)
{
    if (ok)
        return;
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", what.c_str());
    _failures.push_back(what);
}

void
Report::countOps(std::uint64_t attempted, std::uint64_t failed)
{
    _attempted += attempted;
    _failed += failed;
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(_attempted);
    out += ", \"failed\": " + std::to_string(_failed);
    out += ", \"metrics\": {";
    char num[64];
    for (std::size_t i = 0; i < _metrics.size(); ++i) {
        const Metric &m = _metrics[i];
        std::snprintf(num, sizeof num, "%.17g", m.value); // every digit
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

void
freshDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

void
dropLastRecord(const std::string &log_path)
{
    std::uint64_t n = fileBytes(log_path);
    if (n == 0)
        throw std::runtime_error("dropLastRecord: empty log " + log_path);
    std::filesystem::resize_file(log_path, n - 1);
}

void
note(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "perfbench: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
}

} // namespace perfbench
