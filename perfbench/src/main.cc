/**
 * @file
 * pvar_perfbench: the repo benchmark's binary.
 *
 *   pvar_perfbench --workload fleet|serve --seed N --seconds S
 *                  --trace 0|1 --workdir DIR [--tiny] [--inject KIND]
 *
 * Runs the fleet, crowd and serve phases (phases.hh), their steps
 * interleaved over the window of S seconds, and prints, as the last
 * line of standard output, one JSON object with the keys "correct",
 * "attempted", "failed" and "metrics". With --trace 0 the metrics are
 * the end-to-end ones; with --trace 1 a separate, traced
 * set of passes reports the per-layer ones. Exits 1 when a correctness
 * gate failed and 2 on a usage or runtime error (no result line).
 *
 * --inject seeds one fault for the self-test: "served-byte",
 * "store-record" or "fast-deviation"; each must fail the run.
 * --only PHASE runs a single phase (its metrics only), for the
 * self-test and for tuning; a full result never uses it.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "phases.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pvar_perfbench: %s\n"
                 "usage: pvar_perfbench --workload fleet|serve "
                 "--seed N --seconds S --trace 0|1 --workdir DIR "
                 "[--tiny] [--only PHASE] [--inject served-byte|"
                 "store-record|fast-deviation]\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        auto number = [&](auto convert) {
            std::string v = value();
            try {
                return convert(v);
            } catch (const std::exception &) {
                usage((arg + " needs a number, got '" + v + "'").c_str());
            }
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = number([](const std::string &v) { return std::stoull(v); });
        } else if (arg == "--seconds") {
            o.seconds = number([](const std::string &v) { return std::stod(v); });
        } else if (arg == "--trace") {
            o.trace = value() == "1";
        } else if (arg == "--workdir") {
            o.workdir = value();
        } else if (arg == "--only") {
            o.only = value();
        } else if (arg == "--tiny") {
            o.tiny = true;
        } else if (arg == "--inject") {
            std::string kind = value();
            if (kind == "served-byte")
                o.inject = Inject::ServedByte;
            else if (kind == "store-record")
                o.inject = Inject::StoreRecord;
            else if (kind == "fast-deviation")
                o.inject = Inject::FastDeviation;
            else
                usage(("unknown fault '" + kind + "'").c_str());
        } else {
            usage(("unknown option '" + arg + "'").c_str());
        }
    }
    if (o.workload != "fleet" && o.workload != "serve")
        usage("--workload must be fleet or serve");
    if (o.workdir.empty())
        usage("--workdir is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    // The CLI default: every hardware thread.
    o.jobs = pvar::resolveJobs(0);
    return o;
}

/**
 * Share of the window for the workload's own phase; the other two
 * split the rest evenly.
 */
constexpr double kFocusShare = 0.4;

/** Steps every phase takes, however short the window. */
constexpr int kMinSteps = 2;

/** A phase and its share of the window, in seconds. */
struct Slot
{
    std::unique_ptr<Phase> phase;
    double windowS = 0.0;
    int steps = 0;
    double spentS = 0.0;

    bool more() const { return steps < kMinSteps || spentS < windowS; }
    double progress() const { return spentS / windowS; }
};

Slot
slotFor(const Options &o, const std::string &phase,
        std::unique_ptr<Phase> p)
{
    Slot s;
    s.phase = std::move(p);
    s.windowS = o.seconds * (o.workload == phase ? kFocusShare
                                                 : (1.0 - kFocusShare) / 2);
    return s;
}

/**
 * Steps the phases until each has used its share of the window, always
 * the phase furthest behind its share next, so that the samples of
 * every metric spread over the whole run; then their metrics.
 */
void
runInterleaved(std::vector<Slot> &slots, Report &rep)
{
    while (true) {
        Slot *next = nullptr;
        for (Slot &s : slots)
            if (s.more() && (!next || s.progress() < next->progress()))
                next = &s;
        if (!next)
            break;
        Clock::time_point t0 = Clock::now();
        next->phase->step();
        next->spentS += secondsSince(t0);
        ++next->steps;
    }
    std::vector<double> setup_s;
    for (Slot &s : slots)
        s.phase->finish(setup_s);
    double total = 0.0;
    for (double x : setup_s)
        total += x;
    rep.add("setup_s", total, "s");
    rep.add("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    pvar::setLogLevel(pvar::LogLevel::Quiet);

    Report rep;
    try {
        freshDir(o.workdir);
        auto want = [&](const char *phase) {
            return o.only.empty() || o.only == phase;
        };
        if (o.trace) {
            if (want("serve"))
                serveTraced(o, rep);
            if (want("fleet"))
                fleetTraced(o, rep);
            if (want("crowd"))
                crowdTraced(o, rep);
        } else {
            std::vector<Slot> slots;
            if (want("serve"))
                slots.push_back(slotFor(o, "serve", servePhase(o, rep)));
            if (want("fleet"))
                slots.push_back(slotFor(o, "fleet", fleetPhase(o, rep)));
            if (want("crowd"))
                slots.push_back(slotFor(o, "crowd", crowdPhase(o, rep)));
            runInterleaved(slots, rep);
        }
        std::filesystem::remove_all(o.workdir);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pvar_perfbench: %s\n", e.what());
        return 2;
    }

    std::printf("%s\n", rep.json().c_str());
    return rep.correct() ? 0 : 1;
}
