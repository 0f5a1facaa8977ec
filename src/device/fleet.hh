/**
 * @file
 * The paper's experimental fleet — registry-backed accessors.
 *
 * §IV studied 18 units across five SoC generations:
 *
 *   SD-800 / Nexus 5 ....... 4 units (bins 0, 1, 2, 3; the bin-4 unit
 *                            failed during the paper's experiments)
 *   SD-805 / Nexus 6 ....... 3 units (near-identical)
 *   SD-810 / Nexus 6P ...... 3 units (dev-363, dev-520, dev-793)
 *   SD-820 / LG G5 ......... 5 units
 *   SD-821 / Google Pixel .. 3 units (dev-488, dev-561, dev-653)
 *
 * The fleet is pure *data*: every unit's calibrated corner and every
 * model's study constants live in the built-in DeviceRegistry
 * (registry.cc), chosen so the simulated protocol reproduces the
 * variation bands of paper Table II (see DESIGN.md §4 and the
 * calibration tests). The functions here are thin lookups kept for
 * callers that address the fleet by SoC name.
 */

#ifndef PVAR_DEVICE_FLEET_HH
#define PVAR_DEVICE_FLEET_HH

#include <memory>
#include <string>
#include <vector>

#include "device/catalog.hh"
#include "device/device.hh"
#include "device/registry.hh"

namespace pvar
{

/** The four Nexus 5 units (bins 0, 1, 2, 3). */
Fleet nexus5Fleet();

/** The three Nexus 6 units. */
Fleet nexus6Fleet();

/** The three Nexus 6P units (dev-363, dev-520, dev-793). */
Fleet nexus6pFleet();

/** The five LG G5 units. */
Fleet lgG5Fleet();

/** The three Pixel units (dev-488, dev-561, dev-653). */
Fleet pixelFleet();

/** A fleet for one SoC by name ("SD-800" ... "SD-821"). */
Fleet fleetForSoc(const std::string &soc_name);

/** The SoC names in paper order. */
const std::vector<std::string> &studySocNames();

/**
 * The fixed frequency used for each SoC's FIXED-FREQUENCY workload
 * (a mid-ladder OPP guaranteed not to reach any trip point).
 */
MegaHertz fixedFrequencyForSoc(const std::string &soc_name);

/**
 * The Monsoon output voltage the study uses for an SoC. Nominal
 * battery voltage everywhere except the LG G5, which must be powered
 * at its battery's 4.4 V maximum to avoid the input-voltage throttle
 * the paper discovered (Fig 10).
 */
Volts studyMonsoonVoltageForSoc(const std::string &soc_name);

/**
 * Build one unit of the model carrying the given SoC at an arbitrary
 * silicon corner (Nexus 5 units use the mid bin-2 voltage table).
 * Used by crowd simulations that need units beyond the study fleet.
 */
std::unique_ptr<Device> makeUnitForSoc(const std::string &soc_name,
                                       const UnitCorner &corner);

class Rng;

/**
 * Draw one synthetic unit's silicon corner: the latent process
 * deviate (sigma given by the caller) then the residual log-leakage
 * deviate (sigma 0.3), in that exact order. Every Monte-Carlo
 * population in the repo (crowd, sample-size study) samples units
 * through this helper serially before fanning experiments out, so a
 * population is a pure function of the seed regardless of how the
 * fan-out is scheduled.
 */
UnitCorner sampleUnitCorner(Rng &rng, std::string id,
                            double corner_sigma);

} // namespace pvar

#endif // PVAR_DEVICE_FLEET_HH
