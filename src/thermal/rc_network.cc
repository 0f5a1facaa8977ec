#include "thermal/rc_network.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"

namespace pvar
{

const char *
solverKindName(SolverKind kind)
{
    return kind == SolverKind::Fast ? "fast" : "stepped";
}

bool
parseSolverKind(const std::string &text, SolverKind &out)
{
    if (text == "stepped") {
        out = SolverKind::Stepped;
        return true;
    }
    if (text == "fast") {
        out = SolverKind::Fast;
        return true;
    }
    return false;
}

ThermalNodeId
ThermalNetwork::addNode(const std::string &node_name,
                        JoulesPerKelvin capacitance, Celsius initial)
{
    if (capacitance.value() <= 0.0)
        fatal("ThermalNetwork: node '%s' needs positive capacitance",
              node_name.c_str());
    _nodes.push_back(
        Node{node_name, capacitance.value(), initial.value(), 0.0});
    _adj.emplace_back();
    _topologyDirty = true;
    return _nodes.size() - 1;
}

ThermalNodeId
ThermalNetwork::addBoundary(const std::string &node_name, Celsius temp)
{
    _nodes.push_back(Node{node_name, 0.0, temp.value(), 0.0});
    _adj.emplace_back();
    _topologyDirty = true;
    return _nodes.size() - 1;
}

void
ThermalNetwork::connect(ThermalNodeId a, ThermalNodeId b, WattsPerKelvin g)
{
    checkNode(a);
    checkNode(b);
    if (a == b)
        fatal("ThermalNetwork: self edge on '%s'", _nodes[a].name.c_str());
    if (g.value() <= 0.0)
        fatal("ThermalNetwork: non-positive conductance between '%s' "
              "and '%s'",
              _nodes[a].name.c_str(), _nodes[b].name.c_str());
    _edges.push_back(Edge{a, b, g.value()});
    _adj[a].emplace_back(b, g.value());
    _adj[b].emplace_back(a, g.value());
    _topologyDirty = true;
}

void
ThermalNetwork::setPower(ThermalNodeId node, Watts p)
{
    checkNode(node);
    _nodes[node].power = p.value();
}

Watts
ThermalNetwork::power(ThermalNodeId node) const
{
    checkNode(node);
    return Watts(_nodes[node].power);
}

Celsius
ThermalNetwork::temperature(ThermalNodeId node) const
{
    checkNode(node);
    return Celsius(_nodes[node].temp);
}

void
ThermalNetwork::setTemperature(ThermalNodeId node, Celsius t)
{
    checkNode(node);
    _nodes[node].temp = t.value();
}

bool
ThermalNetwork::isBoundary(ThermalNodeId node) const
{
    checkNode(node);
    return _nodes[node].capacitance <= 0.0;
}

const std::string &
ThermalNetwork::nodeName(ThermalNodeId node) const
{
    checkNode(node);
    return _nodes[node].name;
}

void
ThermalNetwork::checkNode(ThermalNodeId node) const
{
    if (node >= _nodes.size())
        panic("ThermalNetwork: node id %zu out of range (%zu nodes)", node,
              _nodes.size());
}

double
ThermalNetwork::minTimeConstant() const
{
    double tau = std::numeric_limits<double>::infinity();
    for (ThermalNodeId i = 0; i < _nodes.size(); ++i) {
        if (_nodes[i].capacitance <= 0.0)
            continue;
        double g_total = 0.0;
        for (const auto &[other, g] : _adj[i])
            g_total += g;
        if (g_total > 0.0)
            tau = std::min(tau, _nodes[i].capacitance / g_total);
    }
    return tau;
}

void
ThermalNetwork::refreshTopologyCache()
{
    _minTau = minTimeConstant();
    _invCap.resize(_nodes.size());
    for (ThermalNodeId i = 0; i < _nodes.size(); ++i) {
        _invCap[i] = _nodes[i].capacitance > 0.0
                         ? 1.0 / _nodes[i].capacitance
                         : 0.0; // boundary: dT is forced to zero
    }
    _flux.assign(_nodes.size(), 0.0);
    // Substep counts depend on tau; re-derive on next use.
    _substepCache[0] = SubstepEntry{};
    _substepCache[1] = SubstepEntry{};
    _substepMru = 0;
    _fastDirty = true;
    _topologyDirty = false;
}

int
ThermalNetwork::substepsFor(double h_total)
{
    if (_substepCache[_substepMru].dtSec == h_total)
        return _substepCache[_substepMru].substeps;
    int other = 1 - _substepMru;
    if (_substepCache[other].dtSec == h_total) {
        _substepMru = other;
        return _substepCache[other].substeps;
    }
    int substeps = 1;
    if (std::isfinite(_minTau) && _minTau > 0.0)
        substeps = std::max(
            1,
            static_cast<int>(std::ceil(h_total / (0.5 * _minTau))));
    _substepMru = other; // evict the least recently used entry
    _substepCache[other] = SubstepEntry{h_total, substeps};
    return substeps;
}

void
ThermalNetwork::step(Time dt)
{
    if (_nodes.empty() || dt <= Time::zero())
        return;

    if (_topologyDirty)
        refreshTopologyCache();

    // Explicit Euler is stable for h < tau_min; halve further for
    // accuracy headroom. The substep count only changes with the
    // topology or the step size, both cached.
    double h_total = dt.toSec();
    int substeps = substepsFor(h_total);
    double h = h_total / substeps;

    const std::size_t n_nodes = _nodes.size();
    double *flux = _flux.data();
    for (int s = 0; s < substeps; ++s) {
        std::fill(_flux.begin(), _flux.end(), 0.0);
        for (const auto &e : _edges) {
            double q = e.conductance * (_nodes[e.a].temp - _nodes[e.b].temp);
            flux[e.a] -= q;
            flux[e.b] += q;
        }
        for (ThermalNodeId i = 0; i < n_nodes; ++i) {
            // _invCap is 0 for boundaries, which holds their
            // temperature without a branch.
            _nodes[i].temp +=
                (flux[i] + _nodes[i].power) * h * _invCap[i];
        }
    }
}

bool
ThermalNetwork::fastReady()
{
    if (_topologyDirty)
        refreshTopologyCache();
    if (_fastDirty) {
        std::vector<double> caps(_nodes.size());
        for (ThermalNodeId i = 0; i < _nodes.size(); ++i)
            caps[i] = _nodes[i].capacitance;
        std::vector<FastSolverEdge> edges;
        edges.reserve(_edges.size());
        for (const Edge &e : _edges)
            edges.push_back(FastSolverEdge{e.a, e.b, e.conductance});
        _fastUsable = _fast.build(caps, edges);
        _fastTemps.resize(_nodes.size());
        _fastPowers.resize(_nodes.size());
        _fastDirty = false;
    }
    return _fastUsable;
}

void
ThermalNetwork::gatherFastState()
{
    for (ThermalNodeId i = 0; i < _nodes.size(); ++i) {
        _fastTemps[i] = _nodes[i].temp;
        _fastPowers[i] = _nodes[i].power;
    }
}

void
ThermalNetwork::fastAdvance(Time dt)
{
    if (_nodes.empty() || dt <= Time::zero())
        return;
    if (!fastReady()) {
        step(dt);
        return;
    }
    gatherFastState();
    _fast.advance(_fastTemps, _fastPowers, dt.toSec());
    for (ThermalNodeId i = 0; i < _nodes.size(); ++i) {
        if (_nodes[i].capacitance > 0.0)
            _nodes[i].temp = _fastTemps[i];
    }
}

Celsius
ThermalNetwork::fastPreview(ThermalNodeId node, Time dt)
{
    checkNode(node);
    if (dt <= Time::zero() || !fastReady())
        return Celsius(_nodes[node].temp);
    gatherFastState();
    _fast.advance(_fastTemps, _fastPowers, dt.toSec());
    return Celsius(_fastTemps[node]);
}

bool
ThermalNetwork::solveSteadyState(double tolerance, int max_iters,
                                 double *final_residual)
{
    // Seed from the direct eigendecomposed solve when available: the
    // Gauss-Seidel sweeps below then act as verification and polish,
    // converging in a sweep or two with a residual no worse than the
    // purely iterative path's.
    if (!_nodes.empty() && fastReady()) {
        gatherFastState();
        if (_fast.steadyState(_fastTemps, _fastPowers)) {
            for (ThermalNodeId i = 0; i < _nodes.size(); ++i) {
                if (_nodes[i].capacitance > 0.0)
                    _nodes[i].temp = _fastTemps[i];
            }
        }
    }

    double worst = 0.0;
    for (int iter = 0; iter < max_iters; ++iter) {
        worst = 0.0;
        for (ThermalNodeId i = 0; i < _nodes.size(); ++i) {
            if (_nodes[i].capacitance <= 0.0)
                continue;
            double g_total = 0.0;
            double g_weighted = 0.0;
            for (const auto &[other, g] : _adj[i]) {
                g_total += g;
                g_weighted += g * _nodes[other].temp;
            }
            if (g_total <= 0.0)
                continue; // isolated node with power would diverge
            double updated = (g_weighted + _nodes[i].power) / g_total;
            worst = std::max(worst, std::fabs(updated - _nodes[i].temp));
            _nodes[i].temp = updated;
        }
        if (worst < tolerance) {
            if (final_residual)
                *final_residual = worst;
            return true;
        }
    }
    if (final_residual)
        *final_residual = worst;
    warn("ThermalNetwork: steady-state solve did not converge "
         "(residual %.3g K after %d iterations, tolerance %.3g K)",
         worst, max_iters, tolerance);
    return false;
}

Watts
ThermalNetwork::heatOutflow(ThermalNodeId node) const
{
    checkNode(node);
    double q = 0.0;
    for (const auto &[other, g] : _adj[node])
        q += g * (_nodes[node].temp - _nodes[other].temp);
    return Watts(q);
}

} // namespace pvar
