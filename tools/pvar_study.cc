/**
 * @file
 * pvar_study: run the paper's study protocol from the command line.
 *
 *   pvar_study [options]
 *     --soc NAME        run one SoC (SD-800..SD-821); default: all
 *     --device ID       run one unit ("dev-363" or "SD-820:unit-3")
 *     --fleet PATH      run a fleet defined in a JSON spec file
 *     --crowd N         characterize an N-die crowd population by
 *                       stratified sampling instead of a fleet study;
 *                       reports every statistic with a ± interval
 *     --ci-target PCT   crowd mode: keep sampling until every
 *                       headline statistic's relative error is <= PCT
 *     --strata K        crowd mode: equal-probability corner strata
 *     --seed S          crowd mode: population seed (default 1)
 *     --list-devices    print the device registry and exit
 *     --iterations N    ACCUBENCH iterations per experiment (default 5)
 *     --ambient C       THERMABOX target temperature (default 26)
 *     --jobs N          parallel experiment workers (default: all
 *                       hardware threads; results are identical for
 *                       any N)
 *     --json            print results as JSON instead of the table
 *     --csv             print the summary as CSV instead of the table
 *     --output PATH     write the report to PATH instead of stdout
 *     --cache           memoize identical experiments within this run
 *     --cache-dir DIR   persist results to an append-only store in
 *                       DIR; rerunning a killed or repeated study
 *                       skips every experiment already on disk
 *     --fault-plan FILE install a deterministic fault-injection plan
 *                       (JSON; see report/fault_json.hh) for chaos
 *                       replays
 *     --max-attempts N  retry budget per experiment (default 3)
 *     --no-quarantine   abort on budget exhaustion instead of
 *                       benching the unit
 *     --quiet           suppress progress logging
 *     --help            this text
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "accubench/protocol.hh"
#include "fault/fault.hh"
#include "report/fault_json.hh"
#include "report/json.hh"
#include "report/spec_json.hh"
#include "report/table.hh"
#include "sampling/sampler.hh"
#include "store/durable_cache.hh"
#include "store/result_cache.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"

using namespace pvar;

namespace
{

void
usage()
{
    std::printf(
        "pvar_study: reproduce the ISPASS'19 process-variation study\n"
        "\n"
        "  --soc NAME        run one SoC (SD-800..SD-821); default: all\n"
        "  --device ID       run one unit (\"dev-363\" or "
        "\"SD-820:unit-3\")\n"
        "  --fleet PATH      run a fleet defined in a JSON spec file\n"
        "  --crowd N         characterize an N-die crowd population by\n"
        "                    stratified sampling (sampling/sampler.hh);\n"
        "                    prints a JSON report where every statistic\n"
        "                    carries a 95%% confidence half-width.\n"
        "                    Defaults: fast solver, 1 iteration, 16\n"
        "                    strata. With --cache-dir, live-point\n"
        "                    checkpoints make re-runs byte-identical\n"
        "                    and much faster\n"
        "  --ci-target PCT   crowd mode: sample until every headline\n"
        "                    statistic's relative error is <= PCT\n"
        "                    (default: fixed 4 rounds)\n"
        "  --strata K        crowd mode: corner strata (default 16)\n"
        "  --seed S          crowd mode: population seed (default 1)\n"
        "  --list-devices    print the device registry and exit\n"
        "  --iterations N    iterations per experiment (default 5)\n"
        "  --ambient C       chamber target temperature (default 26)\n"
        "  --jobs N          parallel experiment workers (default: all\n"
        "                    hardware threads; results identical for "
        "any N)\n"
        "  --solver KIND     thermal solver: \"stepped\" (reference,\n"
        "                    bit-exact) or \"fast\" (analytic event-to-\n"
        "                    event stepping; agrees to tolerance and\n"
        "                    runs 10-100x faster per experiment)\n"
        "  --json            print results as JSON instead of the table\n"
        "  --csv             print the summary as CSV instead of the "
        "table\n"
        "  --output PATH     write the report to PATH instead of stdout\n"
        "  --cache           memoize identical experiments within this "
        "run\n"
        "  --cache-dir DIR   persist results to DIR; rerunning a\n"
        "                    killed or repeated study skips work\n"
        "                    already on disk\n"
        "  --fault-plan FILE install a deterministic fault-injection\n"
        "                    plan (JSON) for chaos replays\n"
        "  --max-attempts N  retry budget per experiment (default 3)\n"
        "  --no-quarantine   abort on budget exhaustion instead of\n"
        "                    benching the unit\n"
        "  --quiet           suppress progress logging\n"
        "  --help            this text\n");
}

std::string
summaryCsv(const std::vector<SocStudy> &studies)
{
    std::string out =
        "soc,model,units,perf_variation_percent,"
        "energy_variation_percent,fixed_perf_spread_percent,"
        "mean_score_rsd_percent,efficiency_iter_per_wh,"
        "quarantined_units\n";
    for (const auto &s : studies) {
        out += strfmt("%s,%s,%zu,%.3f,%.3f,%.3f,%.3f,%.1f,%llu\n",
                      s.socName.c_str(), s.model.c_str(),
                      s.units.size(), s.perfVariationPercent,
                      s.energyVariationPercent,
                      s.fixedPerfSpreadPercent, s.meanScoreRsdPercent,
                      s.efficiencyIterPerWh,
                      static_cast<unsigned long long>(
                          s.quarantinedUnits));
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path);
    if (!f)
        fatal("pvar_study: cannot write '%s'", path.c_str());
    f << content;
    inform("wrote %s", path.c_str());
}

std::string
policySummary(const DeviceSpec &spec)
{
    std::string out =
        strfmt("%zu trips", spec.thermalGov.trips.size());
    if (!spec.thermalGov.shutdowns.empty())
        out += "+shutdown";
    if (spec.hasRbcpr)
        out += ", rbcpr";
    if (spec.hasInputVoltageThrottle)
        out += ", vin-throttle";
    return out;
}

void
listDevices()
{
    Table t({"Chipset", "Model", "Node", "Units", "Fixed MHz",
             "Monsoon V", "Policy"});
    for (const RegistryEntry &e : DeviceRegistry::builtin().entries()) {
        std::string units;
        for (const UnitCorner &u : e.units) {
            if (!units.empty())
                units += " ";
            units += u.id;
        }
        t.addRow({e.spec.socName, e.spec.model, e.spec.silicon.name,
                  units, fmtDouble(e.fixedFrequency.value(), 0),
                  fmtDouble(e.monsoonVoltage.value(), 2),
                  policySummary(e.spec)});
    }
    std::printf("%s", t.render().c_str());
}

std::string
summaryTable(const std::vector<SocStudy> &studies)
{
    Table t({"Chipset", "Model", "# Devices", "Perf var", "Energy var",
             "Fixed spread", "Mean RSD", "Efficiency (it/Wh)"});
    for (const auto &s : studies) {
        t.addRow({s.socName, s.model, std::to_string(s.units.size()),
                  fmtPercent(s.perfVariationPercent),
                  fmtPercent(s.energyVariationPercent),
                  fmtPercent(s.fixedPerfSpreadPercent, 2),
                  fmtPercent(s.meanScoreRsdPercent, 2),
                  fmtDouble(s.efficiencyIterPerWh, 0)});
    }
    return t.render();
}

/** Parse an integer option value or die with a one-line error. */
long long
intArg(const std::string &opt, const char *text, long long min)
{
    long long v = 0;
    if (!parseIntStrict(text, v) || v < min) {
        fatal("pvar_study: %s needs an integer >= %lld, got '%s'",
              opt.c_str(), min, text);
    }
    return v;
}

/** Parse a floating-point option value or die with a one-line error. */
double
doubleArg(const std::string &opt, const char *text)
{
    double v = 0.0;
    if (!parseDoubleStrict(text, v))
        fatal("pvar_study: %s needs a number, got '%s'", opt.c_str(),
              text);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string soc;
    std::string device_id;
    std::string fleet_path;
    std::string output_path;
    std::string cache_dir;
    bool as_json = false;
    bool as_csv = false;
    bool use_cache = false;
    bool solver_given = false;
    bool iterations_given = false;
    long long crowd_n = 0;
    CrowdStudyConfig crowd;
    StudyConfig cfg;
    cfg.jobs = 0; // tool default: all hardware threads

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("pvar_study: %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--soc") {
            soc = next();
        } else if (arg == "--device") {
            device_id = next();
        } else if (arg == "--fleet") {
            fleet_path = next();
        } else if (arg == "--list-devices") {
            listDevices();
            return 0;
        } else if (arg == "--crowd") {
            crowd_n = intArg(arg, next(), 1);
        } else if (arg == "--ci-target") {
            crowd.ciTargetPercent = doubleArg(arg, next());
            if (crowd.ciTargetPercent <= 0.0)
                fatal("pvar_study: --ci-target needs a positive "
                      "percentage");
        } else if (arg == "--strata") {
            crowd.strata = static_cast<int>(intArg(arg, next(), 1));
        } else if (arg == "--seed") {
            crowd.population.seed =
                static_cast<std::uint64_t>(intArg(arg, next(), 0));
        } else if (arg == "--iterations") {
            cfg.iterations = static_cast<int>(intArg(arg, next(), 1));
            iterations_given = true;
        } else if (arg == "--ambient") {
            double t = doubleArg(arg, next());
            cfg.thermabox.target = Celsius(t);
            cfg.accubench.cooldownTarget = Celsius(t + 6.0);
        } else if (arg == "--jobs") {
            cfg.jobs = static_cast<int>(intArg(arg, next(), 1));
        } else if (arg == "--solver") {
            std::string kind = next();
            if (!parseSolverKind(kind, cfg.solver))
                fatal("pvar_study: --solver must be \"stepped\" or "
                      "\"fast\", got \"%s\"",
                      kind.c_str());
            solver_given = true;
        } else if (arg == "--json") {
            as_json = true;
        } else if (arg == "--csv") {
            as_csv = true;
        } else if (arg == "--output") {
            output_path = next();
        } else if (arg == "--cache") {
            use_cache = true;
        } else if (arg == "--cache-dir") {
            cache_dir = next();
        } else if (arg == "--fault-plan") {
            installFaultPlan(std::make_shared<FaultPlan>(
                loadFaultPlanFile(next())));
        } else if (arg == "--max-attempts") {
            cfg.retry.maxAttempts =
                static_cast<int>(intArg(arg, next(), 1));
        } else if (arg == "--no-quarantine") {
            cfg.retry.quarantine = false;
        } else if (arg == "--quiet") {
            setLogLevel(LogLevel::Quiet);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 1;
        }
    }

    if ((soc.empty() ? 0 : 1) + (device_id.empty() ? 0 : 1) +
            (fleet_path.empty() ? 0 : 1) + (crowd_n > 0 ? 1 : 0) >
        1)
        fatal("pvar_study: --soc, --device, --fleet and --crowd are "
              "exclusive");
    if (as_json && as_csv)
        fatal("pvar_study: --json and --csv are exclusive");

    ResultCache cache;
    std::unique_ptr<DurableCache> durable;
    if (!cache_dir.empty()) {
        // Durable mode subsumes --cache: the LRU layer is built in.
        durable = std::make_unique<DurableCache>(cache_dir);
        cfg.cache = durable.get();
    } else if (use_cache) {
        cfg.cache = &cache;
    }

    if (crowd_n > 0) {
        crowd.population.size = static_cast<std::uint64_t>(crowd_n);
        crowd.jobs = cfg.jobs;
        // Crowd defaults diverge from the fleet study: the analytic
        // solver and a single iteration are what make population
        // scale tractable; explicit flags still win.
        crowd.solver = solver_given ? cfg.solver : SolverKind::Fast;
        crowd.iterations = iterations_given ? cfg.iterations : 1;
        crowd.accubench = cfg.accubench;
        std::unique_ptr<DurableLivePointCache> live_points;
        if (durable) {
            live_points = std::make_unique<DurableLivePointCache>(
                durable->store());
            crowd.livePoints = live_points.get();
        }

        CrowdStudyResult r = runCrowdStudy(crowd);
        inform("crowd: %llu of %llu dies sampled (%d rounds x %d "
               "strata), %.3f%% achieved relative error",
               static_cast<unsigned long long>(r.sampled),
               static_cast<unsigned long long>(r.population),
               r.rounds, r.strata, r.achievedRelErrPercent);
        if (durable && durable->degraded()) {
            warn("pvar_study: cache store degraded to memory-only "
                 "during this run; live points were NOT persisted");
        }
        // Same trailing-newline contract as the /study JSON report.
        std::string report = crowdStudyJson(r) + "\n";
        if (!output_path.empty())
            writeFile(output_path, report);
        else
            std::printf("%s", report.c_str());
        return 0;
    }

    std::vector<SocStudy> studies;
    try {
        if (!fleet_path.empty()) {
            // The loaded entries must outlive the flattened task list.
            std::vector<RegistryEntry> fleet =
                loadFleetFile(fleet_path);
            inform("fleet: %s (%zu models)", fleet_path.c_str(),
                   fleet.size());
            std::vector<const RegistryEntry *> entries;
            for (const RegistryEntry &e : fleet)
                entries.push_back(&e);
            studies = runStudy(entries, cfg);
        } else if (!device_id.empty()) {
            UnitRef ref =
                DeviceRegistry::builtin().findUnit(device_id);
            if (!ref.entry)
                fatal("pvar_study: unknown unit '%s' (try "
                      "--list-devices)",
                      device_id.c_str());
            studies.push_back(
                runUnitStudy(*ref.entry, ref.unitIndex, cfg));
        } else if (!soc.empty()) {
            studies.push_back(runSocStudy(soc, cfg));
        } else {
            studies = runFullStudy(cfg);
        }
    } catch (const FaultError &e) {
        // A permanent fault (or an exhausted budget under
        // --no-quarantine): a clean one-line abort, not a crash.
        fatal("pvar_study: study aborted by permanent fault: %s",
              e.what());
    }

    if (durable && durable->degraded()) {
        warn("pvar_study: cache store degraded to memory-only during "
             "this run; results are complete but were NOT persisted");
    }

    if (durable) {
        ResultCacheStats cs = durable->lruStats();
        ExperimentStoreStats ss = durable->storeStats();
        inform("cache: %llu memory hits, %llu store hits (resumed), "
               "%llu computed; store now %llu records, %llu bytes",
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(ss.hits),
               static_cast<unsigned long long>(ss.misses),
               static_cast<unsigned long long>(ss.records),
               static_cast<unsigned long long>(ss.bytes));
    } else if (use_cache) {
        ResultCacheStats cs = cache.stats();
        inform("cache: %llu hits, %llu misses",
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.misses));
    }

    // The JSON report carries a trailing newline so the bytes match
    // the pvar_served POST /study response exactly.
    std::string report;
    if (as_json)
        report = toJson(studies) + "\n";
    else if (as_csv)
        report = summaryCsv(studies);
    else
        report = summaryTable(studies);

    if (!output_path.empty())
        writeFile(output_path, report);
    else
        std::printf("%s", report.c_str());
    return 0;
}
