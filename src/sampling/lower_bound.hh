/**
 * @file
 * Sample-size (lower-bound) study, paper §VII third contribution.
 *
 * "It only takes two devices to observe variations. While our study
 * of SoCs is limited, at times with only 3 devices to represent an
 * SoC generation, the process variations shown in Table II can be
 * considered as a minimum lower-bound to the overall variation."
 *
 * This module quantifies that statement: it Monte-Carlo-samples
 * fleets of n units from the process distribution, runs the
 * UNCONSTRAINED experiment on each, and reports how the *observed*
 * performance spread grows with n — showing the paper's 3-4 unit
 * numbers systematically underestimate the population spread.
 */

#ifndef PVAR_SAMPLING_LOWER_BOUND_HH
#define PVAR_SAMPLING_LOWER_BOUND_HH

#include <string>
#include <vector>

#include "accubench/accubench.hh"

namespace pvar
{

/** Study parameters. */
struct LowerBoundConfig
{
    /** The SoC population to sample. */
    std::string socName = "SD-821";

    /** Fleet sizes to evaluate. */
    std::vector<int> sampleSizes = {2, 3, 5, 8};

    /** Monte-Carlo replicates per fleet size. */
    int replicates = 5;

    /** Seed for fleet sampling. */
    std::uint64_t seed = 1;

    /** Sigma of the latent process deviate in the population. */
    double cornerSigma = 1.0;

    /** ACCUBENCH iterations per unit (1 suffices for the spread). */
    int iterations = 1;

    /** Technique parameters (shorten for quick studies). */
    AccubenchConfig accubench;

    /**
     * Worker threads for the unit-experiment fan-out. Corners are
     * drawn serially in (size, replicate, unit) order before any
     * experiment starts, so results are bit-identical for any jobs
     * value. 1 = serial (default); <= 0 = all hardware threads.
     */
    int jobs = 1;

    /**
     * Thermal solver for every unit's experiment (same contract as
     * StudyConfig::solver).
     */
    SolverKind solver = SolverKind::Stepped;
};

/** Result for one fleet size. */
struct LowerBoundPoint
{
    int sampleSize = 0;

    /** Mean observed perf spread across replicates (percent). */
    double meanSpreadPercent = 0.0;

    /** Smallest / largest observed spread across replicates. */
    double minSpreadPercent = 0.0;
    double maxSpreadPercent = 0.0;
};

/**
 * Run the Monte-Carlo sample-size study.
 *
 * The returned points are ordered as cfg.sampleSizes. Deterministic
 * for a given seed.
 */
std::vector<LowerBoundPoint> sampleSizeStudy(const LowerBoundConfig &cfg);

} // namespace pvar

#endif // PVAR_SAMPLING_LOWER_BOUND_HH
