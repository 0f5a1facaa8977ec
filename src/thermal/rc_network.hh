/**
 * @file
 * Lumped-parameter (RC) thermal network.
 *
 * Heat conduction through a small device is well approximated by a
 * graph of thermal capacitances (nodes) joined by thermal conductances
 * (edges), with dissipating components injecting power into nodes and
 * the environment modeled as fixed-temperature boundary nodes. This is
 * the same abstraction Therminator and gem5's thermal model use.
 *
 * Integration is explicit Euler with automatic sub-stepping: the step
 * is subdivided until it is below half of the smallest node time
 * constant, which keeps the forward method stable for any network.
 */

#ifndef PVAR_THERMAL_RC_NETWORK_HH
#define PVAR_THERMAL_RC_NETWORK_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/bytes.hh"
#include "sim/time.hh"
#include "sim/units.hh"
#include "thermal/fast_solver.hh"

namespace pvar
{

/** Index of a node within a ThermalNetwork. */
using ThermalNodeId = std::size_t;

/**
 * Which integrator advances thermal state.
 *
 * `Stepped` is the explicit-Euler reference: its output is the
 * bit-identity contract every cache and determinism check is keyed
 * to. `Fast` jumps event-to-event through the eigendecomposed matrix
 * exponential (see thermal/fast_solver.hh); it agrees with Stepped to
 * tolerance, not bit-for-bit.
 */
enum class SolverKind
{
    Stepped,
    Fast,
};

/** Canonical lowercase name ("stepped" / "fast"). */
const char *solverKindName(SolverKind kind);

/** Parse a canonical solver name; false leaves `out` untouched. */
bool parseSolverKind(const std::string &text, SolverKind &out);

/**
 * A graph of thermal masses and conductances.
 */
class ThermalNetwork
{
  public:
    ThermalNetwork() = default;

    /**
     * Add a thermal mass.
     *
     * @param node_name diagnostic name.
     * @param capacitance heat capacity (J/K); must be positive.
     * @param initial starting temperature.
     */
    ThermalNodeId addNode(const std::string &node_name,
                          JoulesPerKelvin capacitance, Celsius initial);

    /**
     * Add a fixed-temperature boundary (e.g. ambient air).
     */
    ThermalNodeId addBoundary(const std::string &node_name, Celsius temp);

    /** Join two nodes with a thermal conductance (W/K). */
    void connect(ThermalNodeId a, ThermalNodeId b, WattsPerKelvin g);

    /** Number of nodes (including boundaries). */
    std::size_t nodeCount() const { return _nodes.size(); }

    /** Set the power injected into a node (held until changed). */
    void setPower(ThermalNodeId node, Watts p);

    /** Current injected power. */
    Watts power(ThermalNodeId node) const;

    /** Instantaneous temperature of a node. */
    Celsius temperature(ThermalNodeId node) const;

    /** Force a node's temperature (initialization / boundary update). */
    void setTemperature(ThermalNodeId node, Celsius t);

    /** True if the node is a fixed-temperature boundary. */
    bool isBoundary(ThermalNodeId node) const;

    /** Node's diagnostic name. */
    const std::string &nodeName(ThermalNodeId node) const;

    /** Advance the network by `dt` (sub-stepped as needed). */
    void step(Time dt);

    /**
     * Jump to the steady state for the current powers and boundary
     * temperatures (Gauss-Seidel iteration).
     *
     * @param tolerance convergence threshold in kelvin.
     * @param max_iters iteration cap.
     * @param final_residual if non-null, receives the largest
     *        per-node temperature update of the last sweep (kelvin) —
     *        the convergence diagnostic, valid on both outcomes.
     * @return true on convergence.
     */
    bool solveSteadyState(double tolerance = 1e-6, int max_iters = 20000,
                          double *final_residual = nullptr);

    /** Net heat flow out of a node through its edges right now (W). */
    Watts heatOutflow(ThermalNodeId node) const;

    /**
     * Analytic fast path: advance by `dt` in one O(n^2) jump. Exact
     * for the linear network while powers and boundaries are held;
     * falls back to step() if the eigendecomposition is unavailable.
     */
    void fastAdvance(Time dt);

    /**
     * Temperature `node` would reach after `dt` at the current powers
     * without mutating any state — the Picard-iteration probe for
     * temperature-dependent power.
     */
    Celsius fastPreview(ThermalNodeId node, Time dt);

    /** True once the analytic solver is built for this topology. */
    bool fastReady();

    /**
     * @name Live-point state.
     *
     * Only per-node temperature and injected power are dynamic; the
     * topology (names, capacitances, edges) is rebuilt from the device
     * spec, and every solver cache gathers state per call, so a
     * restore needs no invalidation.
     * @{
     */
    void
    saveState(ByteWriter &w) const
    {
        w.u32(static_cast<std::uint32_t>(_nodes.size()));
        for (const Node &n : _nodes) {
            w.f64(n.temp);
            w.f64(n.power);
        }
    }

    bool
    loadState(ByteReader &r)
    {
        std::uint32_t n_nodes = 0;
        if (!r.u32(n_nodes) || n_nodes != _nodes.size())
            return false;
        for (Node &n : _nodes)
            if (!r.f64(n.temp) || !r.f64(n.power))
                return false;
        return true;
    }
    /** @} */

  private:
    struct Node
    {
        std::string name;
        double capacitance; // J/K; <= 0 marks a boundary
        double temp;        // Celsius
        double power;       // W injected
    };

    struct Edge
    {
        ThermalNodeId a;
        ThermalNodeId b;
        double conductance; // W/K
    };

    std::vector<Node> _nodes;
    std::vector<Edge> _edges;
    // Adjacency: per node, list of (other node, conductance).
    std::vector<std::vector<std::pair<ThermalNodeId, double>>> _adj;

    // step() is the hottest function in every simulation; the values
    // below depend only on topology (and the step size), so they are
    // cached and invalidated by addNode/addBoundary/connect instead of
    // being recomputed every call.
    bool _topologyDirty = true;     // tau/invCap need a recompute
    double _minTau = 0.0;           // cached minTimeConstant()
    std::vector<double> _invCap;    // 1/C per node; 0 for boundaries
    std::vector<double> _flux;      // scratch, sized to _nodes

    // Components tick with alternating step sizes (device at dt, box
    // controller remainders), so a single cached dt would re-derive
    // the substep count every call; a two-entry MRU covers the
    // ping-pong without thrash.
    struct SubstepEntry
    {
        double dtSec = -1.0; // dt the substep count was sized for
        int substeps = 1;
    };
    SubstepEntry _substepCache[2];
    int _substepMru = 0;

    // Analytic solver state, rebuilt lazily per topology.
    FastThermalSolver _fast;
    bool _fastDirty = true;
    bool _fastUsable = false;
    std::vector<double> _fastTemps;  // gather/scatter scratch
    std::vector<double> _fastPowers; // gather scratch

    void checkNode(ThermalNodeId node) const;
    void refreshTopologyCache();
    double minTimeConstant() const;
    int substepsFor(double h_total);
    void gatherFastState();
};

} // namespace pvar

#endif // PVAR_THERMAL_RC_NETWORK_HH
