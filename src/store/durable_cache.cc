#include "store/durable_cache.hh"

namespace pvar
{

DurableCache::DurableCache(const std::string &dir,
                           std::size_t lru_entries, int sync_every)
    : _store(dir, sync_every), _lru(lru_entries)
{
}

ExperimentResult
DurableCache::getOrCompute(
    const RegistryEntry &entry, std::size_t unit_index,
    const ExperimentConfig &cfg,
    const std::function<ExperimentResult()> &compute)
{
    // Traced results are never stored (ExperimentConfig::trace). The
    // LRU's own bypass would still run the lambda below, so the store
    // needs this guard too.
    if (cfg.trace)
        return compute();

    // The LRU fronts the store: its miss path (run outside its lock)
    // consults the log before paying for a simulation, and a fresh
    // compute is written through so the result survives the process.
    return _lru.getOrCompute(entry, unit_index, cfg, [&]() {
        std::string key_text = experimentKeyText(entry, unit_index, cfg);
        ExperimentResult result;
        if (_store.get(key_text, result))
            return result;
        result = compute();
        _store.put(key_text, result);
        return result;
    });
}

void
DurableCache::flushPending()
{
    _store.sync();
}

} // namespace pvar
