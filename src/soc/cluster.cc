#include "soc/cluster.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace pvar
{

CpuCluster::CpuCluster(ClusterParams params)
    : _params(std::move(params)), _oppIndex(0),
      _onlineCores(_params.coreCount), _utilization(0.0),
      _recoup(Volts(0.0))
{
    if (_params.coreCount < 1)
        fatal("CpuCluster '%s': needs at least one core",
              _params.name.c_str());
    if (_params.table.empty())
        fatal("CpuCluster '%s': empty V-F table", _params.name.c_str());
    _oppIndex = 0;
}

void
CpuCluster::setOppIndex(std::size_t idx)
{
    _oppIndex = std::min(idx, _params.table.size() - 1);
}

MegaHertz
CpuCluster::frequency() const
{
    return _params.table.point(_oppIndex).freq;
}

Volts
CpuCluster::fusedVoltage() const
{
    return _params.table.point(_oppIndex).voltage;
}

Volts
CpuCluster::appliedVoltage() const
{
    return fusedVoltage() - _recoup;
}

void
CpuCluster::setOnlineCores(int n)
{
    _onlineCores = std::clamp(n, 1, _params.coreCount);
}

void
CpuCluster::setUtilization(double u)
{
    _utilization = std::clamp(u, 0.0, 1.0);
}

Watts
CpuCluster::power(const Die &die, Celsius die_temp) const
{
    const double size = _params.coreType.sizeFactor;
    Volts v = appliedVoltage();
    MegaHertz f = frequency();

    // Every online core draws the same power, as does every offline
    // one: evaluate each term once (leakage costs two exp), then sum
    // per core in core order so the total stays bit-identical to the
    // per-core evaluation.
    double activity =
        _utilization + (1.0 - _utilization) * _params.idleDynamicFraction;
    Watts dynamic = die.dynamicPower(v, f, activity, size);
    Watts leak_online = die.leakagePower(v, die_temp, size);
    Watts leak_offline(0.0);
    if (_onlineCores < _params.coreCount)
        leak_offline = die.leakagePower(
            v, die_temp, size * _params.offlineLeakFraction);

    Watts total(0.0);
    for (int core = 0; core < _params.coreCount; ++core) {
        if (core < _onlineCores) {
            total += dynamic;
            total += leak_online;
        } else {
            total += leak_offline;
        }
    }
    return total;
}

double
CpuCluster::workRate() const
{
    double per_core = frequency().toHertz() * _utilization /
                      _params.coreType.cyclesPerIteration;
    return per_core * _onlineCores;
}

} // namespace pvar
