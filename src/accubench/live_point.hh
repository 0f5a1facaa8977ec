/**
 * @file
 * Live-point checkpoints of a running experiment.
 *
 * The stabilize/warmup#0/cooldown#0 prefix of an experiment is a pure
 * function of the experiment key and dominates wall clock, so its end
 * state — the end of iteration 0's cooldown polling, before the
 * cooldown-exit bookkeeping — is worth persisting. A cold run
 * captures it once; a re-run under the same full key restores it and
 * finishes iteration 0 from there, which is bit-identical to having
 * simulated the prefix.
 *
 * Record layout (codec version 4; store/codec.hh reserves the version
 * number and validates exactly this framing without understanding the
 * payloads):
 *
 *   u32 version (=4) | u64 digest | u32 n_sections
 *                    | (u32 tag | str payload)*
 *
 * Sections, in order: 1 meta (clock + protocol scratch), 2 Thermabox,
 * 3 Device. No trace: a traced run never uses live points
 * (ExperimentConfig::trace). `digest` is the FNV-1a of every byte
 * after the digest field, so a record flips from valid to rejected on
 * any single corrupted body byte, no matter what transport carried it.
 */

#ifndef PVAR_ACCUBENCH_LIVE_POINT_HH
#define PVAR_ACCUBENCH_LIVE_POINT_HH

#include <string>

#include "accubench/accubench.hh"
#include "sim/simulator.hh"
#include "thermabox/thermabox.hh"

namespace pvar
{

class LivePointCache;

/** The parts of one running experiment a live point covers. */
struct LivePointState
{
    Simulator &sim;
    Thermabox &box;
    Device &device;
    AccubenchProgress &progress;
};

/** At the capture point of a cold run: store @p s under @p key. */
void captureLivePoint(LivePointCache &cache, const std::string &key,
                      const LivePointState &s);

/**
 * Apply the stored record @p value to a freshly configured experiment.
 * Transactional: the cold state is snapshotted before any byte is
 * applied, and every decode or validation failure rolls back to it and
 * returns false — a corrupt checkpoint costs time, never bits.
 */
bool restoreLivePoint(LivePointState &s, const std::string &value);

} // namespace pvar

#endif // PVAR_ACCUBENCH_LIVE_POINT_HH
