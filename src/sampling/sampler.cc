#include "sampling/sampler.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "device/fleet.hh"
#include "device/registry.hh"
#include "report/json.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "store/result_cache.hh"

namespace pvar
{

namespace
{

/**
 * Distinct root for the sampler's own draw streams: the population's
 * per-die streams fork the raw seed by die index, so the sampling
 * plan must fork a decorrelated root or plan and die attributes would
 * share streams for small indices.
 */
constexpr std::uint64_t kPlanSalt = 0x9e3779b97f4a7c15ull;

/** One stratum's index range and draw state. */
struct Stratum
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0; // exclusive
    Rng rng{0};
    std::set<std::uint64_t> used; // O(rounds), never O(N)
};

/** One sampled die's observables. */
struct DieObs
{
    double score = 0.0;
    double energy = 0.0;
    int bin = 0;
};

std::uint64_t
drawWithoutReplacement(Stratum &st)
{
    std::uint64_t span = st.hi - st.lo;
    if (st.used.size() >= span)
        fatal("crowd sampler: stratum exhausted (%llu draws)",
              static_cast<unsigned long long>(span));
    for (;;) {
        auto offset = static_cast<std::uint64_t>(st.rng.uniformInt(
            0, static_cast<std::int64_t>(span) - 1));
        if (st.used.insert(st.lo + offset).second)
            return st.lo + offset;
    }
}

Estimate
ciFromRounds(const std::vector<double> &round_values, double fpc)
{
    Estimate e;
    std::size_t rounds = round_values.size();
    if (rounds == 0)
        return e;
    double sum = 0.0;
    for (double v : round_values)
        sum += v;
    e.value = sum / static_cast<double>(rounds);
    if (rounds < 2)
        return e;
    double ss = 0.0;
    for (double v : round_values)
        ss += (v - e.value) * (v - e.value);
    double s = std::sqrt(ss / static_cast<double>(rounds - 1));
    e.halfWidth = tCritical95(static_cast<int>(rounds) - 1) * s /
                  std::sqrt(static_cast<double>(rounds)) * fpc;
    return e;
}

double
relErrPercent(const Estimate &e)
{
    if (e.value == 0.0)
        return e.halfWidth == 0.0 ? 0.0 : 1e9;
    return 100.0 * e.halfWidth / std::abs(e.value);
}

void
putEstimate(JsonWriter &w, const char *key, const Estimate &e)
{
    w.key(key).beginObject();
    w.key("value").rawValue(jsonExactDouble(e.value));
    w.key("half_width").rawValue(jsonExactDouble(e.halfWidth));
    w.endObject();
}

void
putPooled(JsonWriter &w, const char *key, const StreamingSummary &s)
{
    w.key(key).beginObject();
    w.key("count").value(static_cast<long long>(s.count()));
    w.key("mean").rawValue(jsonExactDouble(s.mean()));
    w.key("rsd_percent").rawValue(jsonExactDouble(s.rsdPercent()));
    w.key("p50").rawValue(jsonExactDouble(s.median()));
    w.key("p90").rawValue(jsonExactDouble(s.p90()));
    w.endObject();
}

} // namespace

double
tCritical95(int df)
{
    static const double table[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df < 1)
        fatal("tCritical95: need df >= 1");
    if (df <= 30)
        return table[df - 1];
    return 1.960;
}

double
exactQuantile(std::vector<double> values, double q)
{
    if (values.empty())
        fatal("exactQuantile: empty sample");
    if (q < 0.0 || q > 1.0)
        fatal("exactQuantile: q=%g out of [0,1]", q);
    std::sort(values.begin(), values.end());
    double h = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(h);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = h - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

ExperimentConfig
crowdDieExperiment(const CrowdStudyConfig &cfg, const CrowdDie &die)
{
    ExperimentConfig exp;
    exp.mode = WorkloadMode::Unconstrained;
    exp.iterations = cfg.iterations;
    exp.accubench = cfg.accubench;
    exp.supply = SupplyChoice::Battery;
    exp.thermabox.target = Celsius(die.ambientC);
    exp.accubench.cooldownTarget = Celsius(die.ambientC + 8.0);
    exp.solver = cfg.solver;
    exp.trace = false; // the sampler reads per-iteration means only
    if (cfg.livePoints) {
        RegistryEntry entry =
            DeviceRegistry::builtin().at(cfg.population.socName);
        entry.units = {die.corner};
        exp.livePoints = cfg.livePoints;
        exp.livePointKey = livePointKeyText(entry, 0, exp);
    }
    return exp;
}

CrowdStudyResult
runCrowdStudy(const CrowdStudyConfig &cfg)
{
    const CrowdPopulationConfig &pop = cfg.population;
    if (pop.size == 0)
        fatal("runCrowdStudy: empty population");
    if (cfg.strata < 1)
        fatal("runCrowdStudy: need at least one stratum");
    auto strata = static_cast<std::uint64_t>(cfg.strata);
    if (strata > pop.size)
        fatal("runCrowdStudy: more strata (%d) than dies (%llu)",
              cfg.strata, static_cast<unsigned long long>(pop.size));

    int min_rounds = std::max(cfg.minRounds, 2);
    int max_rounds = std::max(cfg.maxRounds, min_rounds);

    // Equal index strata = equal-probability corner strata, because
    // the population is sorted by corner in index order.
    std::vector<Stratum> plan(strata);
    std::uint64_t narrowest = pop.size;
    for (std::uint64_t s = 0; s < strata; ++s) {
        plan[s].lo = s * pop.size / strata;
        plan[s].hi = (s + 1) * pop.size / strata;
        plan[s].rng = Rng(pop.seed ^ kPlanSalt).fork(s);
        narrowest = std::min(narrowest, plan[s].hi - plan[s].lo);
    }
    if (static_cast<std::uint64_t>(max_rounds) > narrowest) {
        warn("runCrowdStudy: clamping round budget %d to the "
             "narrowest stratum (%llu dies)", max_rounds,
             static_cast<unsigned long long>(narrowest));
        max_rounds = static_cast<int>(narrowest);
        min_rounds = std::min(min_rounds, max_rounds);
    }

    // Validate the SoC up front (fatal on an unknown name) instead of
    // deep inside the first round's fan-out.
    (void)DeviceRegistry::builtin().at(pop.socName);

    CrowdStudyResult out;
    out.population = pop.size;
    out.strata = cfg.strata;
    out.ciTargetPercent = cfg.ciTargetPercent;

    // Per-round replicate estimates, grown a round at a time.
    std::vector<double> r_score_mean, r_score_rsd, r_score_p50,
        r_score_p90;
    std::vector<double> r_energy_mean, r_energy_p50, r_energy_p90;
    std::vector<std::map<int, int>> r_bin_counts;

    auto runRound = [&]() {
        // All randomness is consumed here, serially, in stratum
        // order — the fan-out below is pure computation.
        std::vector<std::uint64_t> indices(strata);
        std::vector<CrowdDie> dies(strata);
        for (std::uint64_t s = 0; s < strata; ++s) {
            indices[s] = drawWithoutReplacement(plan[s]);
            dies[s] = crowdDie(pop, indices[s]);
        }

        std::vector<DieObs> obs(strata);
        parallelFor(strata, cfg.jobs, [&](std::size_t s) {
            std::unique_ptr<Device> device =
                makeUnitForSoc(pop.socName, dies[s].corner);
            ExperimentResult r =
                runExperiment(*device, crowdDieExperiment(cfg, dies[s]));
            obs[s].score = r.meanScore();
            obs[s].energy = r.meanWorkloadEnergy().value();
            obs[s].bin = dies[s].bin;
        });

        // Fold in canonical stratum order: P² sketches are
        // feed-order dependent, so the order is part of the output's
        // definition.
        std::vector<double> scores, energies;
        scores.reserve(strata);
        energies.reserve(strata);
        std::map<int, int> bins;
        OnlineSummary score_moments;
        for (std::uint64_t s = 0; s < strata; ++s) {
            out.pooledScores.add(obs[s].score);
            out.pooledEnergy.add(obs[s].energy);
            scores.push_back(obs[s].score);
            energies.push_back(obs[s].energy);
            score_moments.add(obs[s].score);
            ++bins[obs[s].bin];
        }
        double k = static_cast<double>(strata);
        r_score_mean.push_back(score_moments.mean());
        r_score_rsd.push_back(score_moments.rsdPercent());
        r_score_p50.push_back(exactQuantile(scores, 0.5));
        r_score_p90.push_back(exactQuantile(scores, 0.9));
        double esum = 0.0;
        for (double e : energies)
            esum += e;
        r_energy_mean.push_back(esum / k);
        r_energy_p50.push_back(exactQuantile(energies, 0.5));
        r_energy_p90.push_back(exactQuantile(energies, 0.9));
        r_bin_counts.push_back(std::move(bins));
    };

    auto reduce = [&](int rounds) {
        out.rounds = rounds;
        out.sampled = static_cast<std::uint64_t>(rounds) * strata;
        double fpc = std::sqrt(
            1.0 - static_cast<double>(out.sampled) /
                      static_cast<double>(pop.size));
        out.scoreMean = ciFromRounds(r_score_mean, fpc);
        out.scoreRsdPercent = ciFromRounds(r_score_rsd, fpc);
        out.scoreP50 = ciFromRounds(r_score_p50, fpc);
        out.scoreP90 = ciFromRounds(r_score_p90, fpc);
        out.energyMean = ciFromRounds(r_energy_mean, fpc);
        out.energyP50 = ciFromRounds(r_energy_p50, fpc);
        out.energyP90 = ciFromRounds(r_energy_p90, fpc);

        out.binShares.clear();
        std::set<int> seen_bins;
        for (const auto &counts : r_bin_counts)
            for (const auto &[bin, count] : counts)
                seen_bins.insert(bin);
        for (int bin : seen_bins) {
            std::vector<double> shares;
            shares.reserve(r_bin_counts.size());
            for (const auto &counts : r_bin_counts) {
                auto it = counts.find(bin);
                int count = it == counts.end() ? 0 : it->second;
                shares.push_back(static_cast<double>(count) /
                                 static_cast<double>(strata));
            }
            BinShareEstimate b;
            b.bin = bin;
            b.share = ciFromRounds(shares, fpc);
            out.binShares.push_back(b);
        }

        // The stop rule watches the headline magnitudes; RSD and bin
        // shares legitimately sit near zero, so a relative target on
        // them would never converge.
        out.achievedRelErrPercent = std::max(
            std::max(relErrPercent(out.scoreMean),
                     relErrPercent(out.scoreP50)),
            std::max(relErrPercent(out.scoreP90),
                     relErrPercent(out.energyMean)));
    };

    int rounds = 0;
    for (;;) {
        runRound();
        ++rounds;
        if (rounds < min_rounds)
            continue;
        reduce(rounds);
        if (cfg.ciTargetPercent <= 0.0)
            break; // fixed-size study: exactly min_rounds
        if (out.achievedRelErrPercent <= cfg.ciTargetPercent)
            break;
        if (rounds >= max_rounds) {
            warn("runCrowdStudy: round budget (%d) reached at "
                 "%.3f%% relative error (target %.3f%%)", max_rounds,
                 out.achievedRelErrPercent, cfg.ciTargetPercent);
            break;
        }
    }
    return out;
}

std::string
crowdStudyJson(const CrowdStudyResult &r)
{
    JsonWriter w;
    w.beginObject();
    w.key("population").value(static_cast<long long>(r.population));
    w.key("strata").value(r.strata);
    w.key("rounds").value(r.rounds);
    w.key("sampled").value(static_cast<long long>(r.sampled));
    w.key("ci_target_percent")
        .rawValue(jsonExactDouble(r.ciTargetPercent));
    w.key("achieved_rel_err_percent")
        .rawValue(jsonExactDouble(r.achievedRelErrPercent));

    w.key("score").beginObject();
    putEstimate(w, "mean", r.scoreMean);
    putEstimate(w, "rsd_percent", r.scoreRsdPercent);
    putEstimate(w, "p50", r.scoreP50);
    putEstimate(w, "p90", r.scoreP90);
    w.endObject();

    w.key("energy_j").beginObject();
    putEstimate(w, "mean", r.energyMean);
    putEstimate(w, "p50", r.energyP50);
    putEstimate(w, "p90", r.energyP90);
    w.endObject();

    w.key("bin_shares").beginArray();
    for (const BinShareEstimate &b : r.binShares) {
        w.beginObject();
        w.key("bin").value(b.bin);
        w.key("value").rawValue(jsonExactDouble(b.share.value));
        w.key("half_width")
            .rawValue(jsonExactDouble(b.share.halfWidth));
        w.endObject();
    }
    w.endArray();

    w.key("pooled").beginObject();
    putPooled(w, "score", r.pooledScores);
    putPooled(w, "energy_j", r.pooledEnergy);
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace pvar
