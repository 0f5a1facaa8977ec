/**
 * @file
 * A complete smartphone under test.
 *
 * Device wires together every substrate: the SoC (die + clusters), the
 * thermal package, the die temperature sensor, the DVFS and thermal
 * governors, the optional RBCPR and input-voltage-throttle blocks, the
 * power supply (battery or Monsoon), the workload engine, and a
 * minimal OS surface (wakelocks and system suspend). One call to
 * tick() advances the whole machine by one step, in the physical
 * data-flow order:
 *
 *   workload -> SoC power -> supply -> thermals -> sensor -> governors
 */

#ifndef PVAR_DEVICE_DEVICE_HH
#define PVAR_DEVICE_DEVICE_HH

#include <memory>
#include <string>
#include <vector>

#include "power/battery.hh"
#include "thermal/rc_network.hh"
#include "power/energy_meter.hh"
#include "power/power_supply.hh"
#include "silicon/die.hh"
#include "sim/tickable.hh"
#include "sim/trace.hh"
#include "soc/cpufreq.hh"
#include "soc/input_voltage_throttle.hh"
#include "soc/rbcpr.hh"
#include "soc/soc.hh"
#include "soc/thermal_governor.hh"
#include "thermal/package.hh"
#include "thermal/sensor.hh"
#include "workload/engine.hh"
#include "workload/workload.hh"

namespace pvar
{

/** Everything needed to assemble one device model. */
struct DeviceConfig
{
    /** Model name, e.g. "Nexus 5". */
    std::string model = "phone";

    /** SoC marketing name, e.g. "SD-800". */
    std::string socName = "soc";

    PackageParams package;
    SocParams soc;
    SensorParams sensor;
    ThermalGovernorParams thermalGov;

    /** RBCPR adaptive-voltage block (SD-810 and later). */
    bool hasRbcpr = false;
    RbcprParams rbcpr;

    /** Brownout frequency capping (LG G5). */
    bool hasInputVoltageThrottle = false;
    InputVoltageThrottleParams inputThrottle;

    /** Rest-of-board power with the display off, awake. */
    Watts boardActive{0.10};

    /** Rest-of-board power while suspended. */
    Watts boardSuspended{0.004};

    /** PMIC conversion efficiency (supply side / load side). */
    double pmicEfficiency = 0.88;

    BatteryParams battery;

    /** Environment temperature at construction. */
    Celsius initialAmbient{26.0};

    /** Seed for the sensor noise stream. */
    std::uint64_t sensorSeed = 0x5eed;

    /**
     * Mean fraction of CPU cycles stolen by residual background
     * activity while awake (0 disables). Even a locked, stripped
     * LineageOS build has kernel threads and timers; the paper's
     * FIXED-FREQUENCY runs show 1.3-2.6% RSD from exactly this.
     */
    double backgroundNoiseMean = 0.0;

    /** How often the background activity level changes. */
    Time backgroundNoisePeriod = Time::sec(2);

    /** Spacing of trace samples (0 disables tracing). */
    Time tracePeriod = Time::msec(500);
};

/**
 * The device model.
 */
class Device : public Tickable
{
  public:
    /**
     * @param config static configuration.
     * @param die this unit's silicon.
     */
    Device(DeviceConfig config, Die die);

    std::string name() const override;

    /** The model string from the config. */
    const std::string &model() const { return _config.model; }

    /** SoC name from the config. */
    const std::string &socName() const { return _config.socName; }

    /** Unique unit id (the die id). */
    const std::string &unitId() const { return _soc.die().id(); }

    /** @name Component access. @{ */
    Soc &soc() { return _soc; }
    const Soc &soc() const { return _soc; }
    PhonePackage &thermalPackage() { return _package; }
    const PhonePackage &thermalPackage() const { return _package; }
    EnergyMeter &energyMeter() { return _meter; }
    const EnergyMeter &energyMeter() const { return _meter; }
    Battery &battery() { return _battery; }
    ThermalGovernor &thermalGovernor() { return _thermalGov; }
    const DeviceConfig &config() const { return _config; }
    /** @} */

    /** @name Power supply. @{ */

    /**
     * Power from an external supply (e.g. Monsoon) instead of the
     * internal battery; pass nullptr to revert to the battery. The
     * external supply must outlive the device.
     */
    void attachExternalSupply(PowerSupply *supply);

    /** The active supply (battery unless an external one is attached). */
    PowerSupply &supply();

    /** Terminal voltage observed at the last tick. */
    Volts supplyVoltage() const { return _lastSupplyVoltage; }

    /** Total electrical power drawn at the last tick (supply side). */
    Watts lastPower() const { return _lastPower; }

    /** @} */

    /** @name OS surface. @{ */

    /** Hold/release a wakelock (counted). */
    void acquireWakelock();
    void releaseWakelock();
    int wakelockCount() const { return _wakelocks; }

    /**
     * Allow the system to suspend when no wakelock is held. ACCUBENCH
     * enables this during the cooldown phase.
     */
    void setSuspendAllowed(bool allowed) { _suspendAllowed = allowed; }

    /** Hold the system awake until the given time (sensor poll wakeups). */
    void stayAwakeUntil(Time until);

    /** True if the system was suspended during the last tick. */
    bool suspended() const { return _suspended; }

    /** The die temperature as software sees it (latched sensor). */
    Celsius readCpuTemp() const { return _sensor.read(); }

    /**
     * Highest latched sensor reading observed since the last
     * resetSensorPeak() — the per-tick running max ACCUBENCH scores
     * as the peak workload temperature.
     */
    Celsius sensorPeak() const { return _sensorPeak; }

    /** Restart peak tracking from the current latched reading. */
    void resetSensorPeak() { _sensorPeak = _sensor.read(); }

    /** @} */

    /** @name Workload control. @{ */

    void startWorkload(const CpuIntensiveWorkload &w);
    void stopWorkload();
    bool workloadRunning() const { return _engine.running(); }
    double iterations() const { return _engine.iterations(); }
    void resetIterations() { _engine.resetIterations(); }

    /** @} */

    /** @name DVFS policy. @{ */

    /** UNCONSTRAINED mode: performance governor on every cluster. */
    void setPerformanceMode();

    /**
     * FIXED-FREQUENCY mode: pin every cluster at the highest OPP not
     * exceeding `f`.
     */
    void setFixedFrequency(MegaHertz f);

    /**
     * Stock-Android-like mode: the interactive governor ramps each
     * cluster with its utilization (used for consumer-workload
     * scenarios rather than the paper's two lab modes).
     */
    void setInteractiveMode();

    /** @} */

    /** @name Solver selection. @{ */

    /**
     * Choose how tick() advances the device. Stepped is the
     * bit-identity reference (explicit Euler substeps at the base
     * cadence); Fast advances analytically between service instants
     * via the eigendecomposed matrix exponential, servicing sensors,
     * governors, noise and tracing on an internal 250 ms awake /
     * 500 ms suspended cadence. Outputs agree to tolerance, not
     * bit-for-bit.
     */
    void setThermalSolver(SolverKind kind) { _solver = kind; }

    SolverKind thermalSolver() const { return _solver; }

    /**
     * Number of analytic segments where the leakage Picard closure
     * failed to contract and the stepped integrator was used instead.
     */
    std::uint64_t picardFallbacks() const { return _picardFallbacks; }

    /** @} */

    /** @name Environment and tracing. @{ */

    /** Drive the ambient temperature (THERMABOX coupling). */
    void setAmbient(Celsius t) { _package.setAmbient(t); }

    /** Soak the whole device to a temperature (experiment reset). */
    void soakTo(Celsius t);

    /** Heat flowing from the case into the environment (watts). */
    double heatToAmbientW() const
    {
        return _package.heatToAmbient().value();
    }

    /**
     * Record state into `trace` (channels "<prefix>die_temp" etc.);
     * nullptr stops recording.
     */
    void attachTrace(Trace *trace, const std::string &prefix = "");

    /** @} */

    void tick(Time now, Time dt) override;

    Time nextBoundary(Time now, Time base_dt) const override;

    /** Reset governors and meters for a fresh experiment iteration. */
    void resetExperimentState();

    /**
     * @name Live-point state.
     *
     * Serializes every field that evolves during a protocol run:
     * silicon/thermal/supply state, OS surface, governor latches, the
     * noise stream, and accounting. Excluded by design: the external
     * supply pointer, trace attachment and channel caches, and the
     * solver selection — all of those are (re)established by the
     * experiment configuration path before a restore, which must
     * therefore run *after* attachTrace() so the restored trace cursor
     * survives. loadState() returns false on any malformed input,
     * leaving the device unspecified; callers roll back via a saved
     * cold snapshot (see accubench/live_point.cc).
     * @{
     */
    void saveState(ByteWriter &w) const;
    bool loadState(ByteReader &r);
    /** @} */

  private:
    DeviceConfig _config;
    Soc _soc;
    PhonePackage _package;
    TemperatureSensor _sensor;
    Battery _battery;
    PowerSupply *_externalSupply;
    WorkloadEngine _engine;
    ThermalGovernor _thermalGov;
    std::vector<RbcprController> _rbcpr; // one per cluster when enabled
    InputVoltageThrottle _inputThrottle;
    bool _inputThrottleEnabled;
    EnergyMeter _meter;

    std::vector<std::unique_ptr<CpufreqGovernor>> _cpufreq;

    int _wakelocks;
    bool _suspendAllowed;
    bool _suspended;
    Time _wakeUntil;

    Volts _lastSupplyVoltage;
    Watts _lastPower;

    Trace *_trace;
    std::string _tracePrefix;
    Time _lastTraceSample;

    // Channel handles resolved once in attachTrace(); recordTrace is
    // on the hot path in both solver modes.
    TraceChannel *_chDieTemp = nullptr;
    TraceChannel *_chCaseTemp = nullptr;
    TraceChannel *_chPower = nullptr;
    TraceChannel *_chSupply = nullptr;
    TraceChannel *_chOnlineCores = nullptr;
    std::vector<TraceChannel *> _chClusterFreq;

    Rng _noiseRng;
    Time _lastNoiseUpdate;
    bool _noisePrimed;

    SolverKind _solver = SolverKind::Stepped;
    bool _hasInteractiveGov = false;
    Celsius _sensorPeak{0.0};
    std::uint64_t _picardFallbacks = 0;

    void applyGovernors(Time now);
    void recordTrace(Time now);
    void updateBackgroundNoise(Time now);

    void steppedTick(Time now, Time dt);
    void fastTick(Time now, Time dt);
    void advanceFastSegment(Time seg_end, Time seg, bool awake);
    void serviceFast(Time now, bool awake);
    void trackSensorPeak()
    {
        if (_sensor.read().value() > _sensorPeak.value())
            _sensorPeak = _sensor.read();
    }
};

} // namespace pvar

#endif // PVAR_DEVICE_DEVICE_HH
