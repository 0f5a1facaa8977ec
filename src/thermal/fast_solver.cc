#include "thermal/fast_solver.hh"

#include <algorithm>
#include <cmath>

namespace pvar
{

namespace
{

/**
 * Cyclic Jacobi eigendecomposition of a symmetric matrix.
 *
 * `a` is row-major n*n and is destroyed (diagonal becomes the
 * eigenvalues); `q` receives the orthonormal eigenvectors as columns.
 * Thermal networks have a handful of nodes, so the O(n^3)-per-sweep
 * cost is irrelevant and the unconditional numerical robustness of
 * Jacobi (symmetric input, guaranteed orthogonality) is what matters.
 */
bool
jacobiEigen(std::vector<double> &a, std::size_t n, std::vector<double> &q)
{
    q.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        q[i * n + i] = 1.0;
    if (n < 2)
        return true;

    double scale = 0.0;
    for (std::size_t i = 0; i < n * n; ++i)
        scale = std::max(scale, std::fabs(a[i]));
    if (scale == 0.0)
        return true; // zero matrix: already diagonal

    const double tol = 1e-15 * scale;
    for (int sweep = 0; sweep < 100; ++sweep) {
        double off = 0.0;
        for (std::size_t p = 0; p < n; ++p)
            for (std::size_t r = p + 1; r < n; ++r)
                off = std::max(off, std::fabs(a[p * n + r]));
        if (off <= tol)
            return true;

        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t r = p + 1; r < n; ++r) {
                double apr = a[p * n + r];
                if (std::fabs(apr) <= tol)
                    continue;
                double app = a[p * n + p];
                double arr = a[r * n + r];
                double theta = (arr - app) / (2.0 * apr);
                double t = (theta >= 0.0 ? 1.0 : -1.0) /
                           (std::fabs(theta) +
                            std::sqrt(theta * theta + 1.0));
                double c = 1.0 / std::sqrt(t * t + 1.0);
                double s = t * c;

                for (std::size_t k = 0; k < n; ++k) {
                    double akp = a[k * n + p];
                    double akr = a[k * n + r];
                    a[k * n + p] = c * akp - s * akr;
                    a[k * n + r] = s * akp + c * akr;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    double apk = a[p * n + k];
                    double ark = a[r * n + k];
                    a[p * n + k] = c * apk - s * ark;
                    a[r * n + k] = s * apk + c * ark;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    double qkp = q[k * n + p];
                    double qkr = q[k * n + r];
                    q[k * n + p] = c * qkp - s * qkr;
                    q[k * n + r] = s * qkp + c * qkr;
                }
            }
        }
    }
    return false; // did not converge (never seen for symmetric input)
}

/** (1 - exp(-l*dt)) / l, continuous through l -> 0. */
double
phiOf(double lambda, double dt_sec)
{
    double x = lambda * dt_sec;
    if (x < 1e-12)
        return dt_sec * (1.0 - 0.5 * x);
    return -std::expm1(-x) / lambda;
}

} // namespace

bool
FastThermalSolver::build(const std::vector<double> &capacitances,
                         const std::vector<FastSolverEdge> &edges)
{
    _ready = false;
    _interior.clear();
    _phiMemo.clear();
    _phiNext = 0;

    std::vector<std::size_t> to_interior(capacitances.size(),
                                         static_cast<std::size_t>(-1));
    for (std::size_t i = 0; i < capacitances.size(); ++i) {
        if (capacitances[i] > 0.0) {
            to_interior[i] = _interior.size();
            _interior.push_back(i);
        }
    }
    std::size_t n = _interior.size();
    if (n == 0)
        return false;

    _edges = edges;
    _invSqrtC.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        _invSqrtC[i] = 1.0 / std::sqrt(capacitances[_interior[i]]);

    // Scaled interior Laplacian S = C^(-1/2) L C^(-1/2). The diagonal
    // sums conductance to every neighbor (boundaries included); only
    // interior-interior pairs contribute off-diagonal coupling.
    std::vector<double> s(n * n, 0.0);
    for (const FastSolverEdge &e : _edges) {
        std::size_t ia = to_interior[e.a];
        std::size_t ib = to_interior[e.b];
        if (ia != static_cast<std::size_t>(-1))
            s[ia * n + ia] +=
                e.conductance * _invSqrtC[ia] * _invSqrtC[ia];
        if (ib != static_cast<std::size_t>(-1))
            s[ib * n + ib] +=
                e.conductance * _invSqrtC[ib] * _invSqrtC[ib];
        if (ia != static_cast<std::size_t>(-1) &&
            ib != static_cast<std::size_t>(-1)) {
            double coupling =
                e.conductance * _invSqrtC[ia] * _invSqrtC[ib];
            s[ia * n + ib] -= coupling;
            s[ib * n + ia] -= coupling;
        }
    }

    if (!jacobiEigen(s, n, _eigenvectors))
        return false;
    _eigenvalues.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        // S is positive semidefinite; clamp the rounding of zero modes.
        _eigenvalues[k] = std::max(0.0, s[k * n + k]);
    }

    _flux.assign(capacitances.size(), 0.0);
    _w.resize(n);
    _y.resize(n);
    _ready = true;
    return true;
}

const std::vector<double> &
FastThermalSolver::phiFor(double dt_sec)
{
    for (const PhiEntry &e : _phiMemo) {
        if (e.dtSec == dt_sec)
            return e.phi;
    }
    std::size_t n = _interior.size();
    PhiEntry entry;
    entry.dtSec = dt_sec;
    entry.phi.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        entry.phi[k] = phiOf(_eigenvalues[k], dt_sec);
    if (_phiMemo.size() < 16) {
        _phiMemo.push_back(std::move(entry));
        return _phiMemo.back().phi;
    }
    // Round-robin replacement: the working set of interval lengths is
    // tiny; this only guards against pathological dt churn.
    std::size_t slot = _phiNext;
    _phiNext = (_phiNext + 1) % _phiMemo.size();
    _phiMemo[slot] = std::move(entry);
    return _phiMemo[slot].phi;
}

void
FastThermalSolver::netInflow(const std::vector<double> &temps,
                             const std::vector<double> &powers)
{
    std::fill(_flux.begin(), _flux.end(), 0.0);
    for (const FastSolverEdge &e : _edges) {
        double q = e.conductance * (temps[e.a] - temps[e.b]);
        _flux[e.a] -= q;
        _flux[e.b] += q;
    }
    std::size_t n = _interior.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t full = _interior[i];
        _w[i] = _invSqrtC[i] * (_flux[full] + powers[full]);
    }
}

void
FastThermalSolver::applyModal(std::vector<double> &temps,
                              const std::vector<double> &factors)
{
    // y = diag(factors) Q^T w, then dT = C^(-1/2) Q y.
    std::size_t n = _interior.size();
    for (std::size_t k = 0; k < n; ++k) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            acc += _eigenvectors[i * n + k] * _w[i];
        _y[k] = acc * factors[k];
    }
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            acc += _eigenvectors[i * n + k] * _y[k];
        temps[_interior[i]] += _invSqrtC[i] * acc;
    }
}

void
FastThermalSolver::advance(std::vector<double> &temps,
                           const std::vector<double> &powers,
                           double dt_sec)
{
    if (!_ready || dt_sec <= 0.0)
        return;
    netInflow(temps, powers);
    applyModal(temps, phiFor(dt_sec));
}

bool
FastThermalSolver::steadyState(std::vector<double> &temps,
                               const std::vector<double> &powers)
{
    if (!_ready)
        return false;
    std::size_t n = _interior.size();
    double lambda_max = 0.0;
    for (double l : _eigenvalues)
        lambda_max = std::max(lambda_max, l);
    std::vector<double> inv(n);
    for (std::size_t k = 0; k < n; ++k) {
        // A near-zero mode means some component has no conductive
        // path to a boundary: its temperature grows without bound
        // under power, so there is no steady state to jump to.
        if (_eigenvalues[k] <= 1e-12 * std::max(lambda_max, 1.0))
            return false;
        inv[k] = 1.0 / _eigenvalues[k];
    }
    netInflow(temps, powers);
    applyModal(temps, inv);
    return true;
}

} // namespace pvar
