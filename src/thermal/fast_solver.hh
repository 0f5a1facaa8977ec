/**
 * @file
 * Analytic (eigendecomposition) solver for RC thermal networks.
 *
 * An RC network with constant injected power and fixed boundary
 * temperatures is a linear time-invariant system: C dT/dt = -L T + b.
 * Scaling by C^(-1/2) symmetrizes the interior Laplacian, so one
 * Jacobi eigendecomposition per topology gives the exact transient
 * for any horizon:
 *
 *   T(dt) = T(0) + C^(-1/2) Q diag(phi_k(dt)) Q^T C^(-1/2) r(0)
 *   phi_k(dt) = (1 - exp(-lambda_k dt)) / lambda_k   (-> dt as l->0)
 *
 * where r(0) = b - L T(0) is the net heat inflow per interior node at
 * the start of the interval — the same quantity the stepped Euler
 * integrator computes per substep. Each jump is O(n^2) in the number
 * of interior nodes, independent of the horizon, which is what lets
 * the simulator advance event-to-event instead of tick-by-tick.
 *
 * The zero-eigenvalue limit of phi also covers networks with no
 * boundary (a conserved-energy mode): the transient is still exact,
 * only steadyState() refuses, because no steady state exists.
 */

#ifndef PVAR_THERMAL_FAST_SOLVER_HH
#define PVAR_THERMAL_FAST_SOLVER_HH

#include <cstddef>
#include <vector>

namespace pvar
{

/** Edge description fed to FastThermalSolver::build. */
struct FastSolverEdge
{
    std::size_t a;
    std::size_t b;
    double conductance; // W/K
};

/**
 * Eigendecomposed advance/steady-state engine for one RC topology.
 *
 * Indices in build/advance refer to the full node vector of the
 * owning network (boundaries included); a capacitance <= 0 marks a
 * boundary. The decomposition is valid until the topology changes,
 * at which point build() must be called again.
 */
class FastThermalSolver
{
  public:
    /**
     * Eigendecompose the scaled interior Laplacian.
     *
     * @param capacitances per-node heat capacity (J/K); <= 0 marks a
     *        fixed-temperature boundary.
     * @param edges conductances between node pairs.
     * @return true when the decomposition converged and the solver is
     *         usable; false leaves the solver not ready.
     */
    bool build(const std::vector<double> &capacitances,
               const std::vector<FastSolverEdge> &edges);

    bool ready() const { return _ready; }

    /** Interior (non-boundary) node count of the built topology. */
    std::size_t interiorCount() const { return _interior.size(); }

    /**
     * Advance interior temperatures by `dt_sec` with powers held
     * constant. `temps` and `powers` are full-length node vectors;
     * boundary entries of `temps` are read, never written.
     */
    void advance(std::vector<double> &temps,
                 const std::vector<double> &powers, double dt_sec);

    /**
     * Jump interior temperatures to the steady state for the current
     * powers and boundaries.
     *
     * @return false (temps untouched) when the system is singular —
     *         some component has no boundary path, so no steady state
     *         exists — or the solver is not ready.
     */
    bool steadyState(std::vector<double> &temps,
                     const std::vector<double> &powers);

  private:
    bool _ready = false;

    std::vector<std::size_t> _interior; // interior -> full index
    std::vector<FastSolverEdge> _edges; // copy, full indices
    std::vector<double> _invSqrtC;      // per interior node
    std::vector<double> _eigenvalues;   // lambda_k, ascending-ish
    std::vector<double> _eigenvectors;  // Q, row-major [i*n + k]

    // Scratch sized at build() so advance() never allocates.
    std::vector<double> _flux; // full length
    std::vector<double> _w;    // interior length
    std::vector<double> _y;    // interior length

    // phi_k(dt) depends only on dt; the simulator replays a small set
    // of interval lengths (poll periods, trace cadence), so memoize
    // the vector per dt.
    struct PhiEntry
    {
        double dtSec;
        std::vector<double> phi;
    };
    std::vector<PhiEntry> _phiMemo;
    std::size_t _phiNext = 0;

    const std::vector<double> &phiFor(double dt_sec);
    void netInflow(const std::vector<double> &temps,
                   const std::vector<double> &powers);
    void applyModal(std::vector<double> &temps,
                    const std::vector<double> &factors);
};

} // namespace pvar

#endif // PVAR_THERMAL_FAST_SOLVER_HH
