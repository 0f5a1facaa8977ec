#include "store/store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/sysfault.hh"
#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "store/codec.hh"
#include "store/result_cache.hh"

namespace pvar
{

namespace
{

const char *kLogName = "experiments.log";
const char *kDegradedMarker = "store.degraded";

/** mkdir -p: create @p dir and any missing parents. */
void
makeDirs(const std::string &dir)
{
    std::string partial;
    for (std::size_t i = 0; i <= dir.size(); ++i) {
        if (i < dir.size() && dir[i] != '/') {
            partial.push_back(dir[i]);
            continue;
        }
        if (i < dir.size())
            partial.push_back('/');
        if (partial.empty() || partial == "/")
            continue;
        if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
            fatal("experiment store: cannot create '%s': %s",
                  partial.c_str(), std::strerror(errno));
        }
    }
}

} // namespace

ExperimentStore::ExperimentStore(const std::string &dir, int sync_every)
    : _dir(dir), _syncEvery(sync_every)
{
    makeDirs(_dir);
    openLogLocked();
    struct stat marker{};
    _markerOnDisk = ::stat(markerPath().c_str(), &marker) == 0;
    if (_markerOnDisk) {
        warn("experiment store: '%s' was marked degraded by an "
             "earlier session (writes were lost); the marker clears "
             "after the next successful write",
             _dir.c_str());
    }
    RecordLogStats ls = _log->stats();
    std::string recovered;
    if (ls.truncatedBytes) {
        recovered = strfmt(
            ", torn tail of %llu bytes truncated",
            static_cast<unsigned long long>(ls.truncatedBytes));
    }
    inform("experiment store: %s (%llu records, %llu bytes%s)",
           _log->path().c_str(),
           static_cast<unsigned long long>(_index.size()),
           static_cast<unsigned long long>(ls.bytes),
           recovered.c_str());
    if (_log->degraded()) {
        // The log could not even be initialized (e.g. ENOSPC writing
        // the header): start memory-only rather than pretend.
        noteDegradedLocked();
    }
}

void
ExperimentStore::openLogLocked()
{
    _index.clear();
    _livePointSizes.clear();
    _log = std::make_unique<RecordLog>(
        _dir + "/" + kLogName, _syncEvery,
        [this](std::int64_t offset, const std::string &key,
               const std::string &value) {
            indexLocked(offset, key, value);
        });
    ++_logGeneration;
}

void
ExperimentStore::indexLocked(std::int64_t offset, const std::string &key,
                             const std::string &value)
{
    // Later records supersede earlier ones: recovery and appends both
    // run in file order, so the last record per digest wins (and the
    // kind tally follows whichever record kind won).
    std::string digest = contentDigest(key);
    _index[digest] = offset;
    _livePointSizes.erase(digest);
    if (valueIsLivePoint(value))
        _livePointSizes[digest] = value.size();
}

bool
ExperimentStore::readRecord(
    const std::string &key_text,
    const std::function<bool(std::string &)> &accept)
{
    std::string digest = contentDigest(key_text);
    std::int64_t offset = -1;
    std::uint64_t generation = 0;
    std::string key, value;
    bool read_ok = false;
    {
        std::shared_lock lock(_mutex);
        auto it = _index.find(digest);
        if (_degraded || it == _index.end()) {
            // Degraded means memory-only: pretend the disk layer is
            // empty rather than trust a log that has already lost
            // data.
            ++_misses;
            return false;
        }
        offset = it->second;
        generation = _logGeneration;
        read_ok = _log->readAt(offset, key, value);
    }
    if (read_ok && key == key_text && accept(value)) {
        ++_hits;
        return true;
    }
    // A digest collision, a corrupt value, or a record of the other
    // kind under this key: forget the entry so the caller's recompute
    // can supersede it, unless a put() or compact() already has.
    {
        std::unique_lock lock(_mutex);
        auto it = _index.find(digest);
        if (it != _index.end() && it->second == offset &&
            _logGeneration == generation) {
            _index.erase(it);
            _livePointSizes.erase(digest);
        }
    }
    ++_misses;
    return false;
}

bool
ExperimentStore::get(const std::string &key_text, ExperimentResult &out)
{
    return readRecord(key_text, [&](std::string &value) {
        return decodeExperimentResult(value, out);
    });
}

bool
ExperimentStore::getBytes(const std::string &key_text, std::string &out)
{
    return readRecord(key_text, [&](std::string &value) {
        if (!validateLivePointValue(value))
            return false;
        out = std::move(value);
        return true;
    });
}

void
ExperimentStore::putBytes(const std::string &key_text,
                          const std::string &value)
{
    if (!validateLivePointValue(value)) {
        warn("experiment store: rejecting putBytes of a value that "
             "is not a valid live point (%zu bytes)", value.size());
        return;
    }
    appendRecord(key_text, value);
}

void
ExperimentStore::put(const std::string &key_text,
                     const ExperimentResult &result)
{
    appendRecord(key_text, encodeExperimentResult(result));
}

void
ExperimentStore::appendRecord(const std::string &key_text,
                              const std::string &value)
{
    std::unique_lock lock(_mutex);
    if (_degraded)
        return; // memory-only: the LRU above still serves this run
    std::int64_t offset = _log->append(key_text, value);
    if (offset < 0 || _log->degraded()) {
        noteDegradedLocked();
        return;
    }
    indexLocked(offset, key_text, value);
    if (_markerOnDisk) {
        // A clean write through the full path: the earlier session's
        // degradation no longer describes this directory.
        clearMarkerLocked();
    }
}

void
ExperimentStore::sync()
{
    std::unique_lock lock(_mutex);
    if (_degraded)
        return;
    _log->sync();
    if (_log->degraded())
        noteDegradedLocked();
}

std::uint64_t
ExperimentStore::compact()
{
    std::unique_lock lock(_mutex);
    RecordLogStats before = _log->stats();

    // Write the surviving records into a sibling file, fsync it, then
    // rename over the live log: rename(2) is atomic, so a crash at
    // any point leaves one complete, valid log.
    std::string tmp_path = _log->path() + ".compact";
    ::remove(tmp_path.c_str());
    {
        RecordLog fresh(tmp_path, /*sync_every=*/0);
        _log->scan([&](std::int64_t offset, const std::string &key,
                       const std::string &value) {
            auto it = _index.find(contentDigest(key));
            if (it == _index.end() || it->second != offset)
                return; // superseded or already dropped
            if (valueIsLivePoint(value)) {
                // Live points survive compaction when structurally
                // valid — they are exactly the records whose value a
                // re-run avoids recomputing.
                if (!validateLivePointValue(value))
                    return;
            } else {
                ExperimentResult probe;
                if (!decodeExperimentResult(value, probe))
                    return; // orphaned: value no longer decodes
            }
            fresh.append(key, value);
        });
        fresh.sync();
        if (fresh.degraded()) {
            // A failed write mid-rewrite would rename a partial log
            // over a complete one: keep the original instead.
            warn("experiment store: compaction aborted (I/O failure "
                 "writing '%s'); original log untouched",
                 tmp_path.c_str());
            ::remove(tmp_path.c_str());
            return 0;
        }
    }
    if (::rename(tmp_path.c_str(), _log->path().c_str()) != 0) {
        // The original log is still complete and live: abort the
        // compaction instead of dying mid-operation.
        warn("experiment store: compaction aborted (rename '%s': %s); "
             "original log untouched",
             tmp_path.c_str(), std::strerror(errno));
        ::remove(tmp_path.c_str());
        return 0;
    }

    openLogLocked();
    if (_log->degraded())
        noteDegradedLocked();
    return before.records - _log->stats().records;
}

void
ExperimentStore::forEach(
    const std::function<void(const std::string &,
                             const ExperimentResult &)> &fn,
    std::uint64_t *bad, std::uint64_t *live_points)
{
    std::shared_lock lock(_mutex);
    _log->scan([&](std::int64_t offset, const std::string &key,
                   const std::string &value) {
        auto it = _index.find(contentDigest(key));
        if (it == _index.end() || it->second != offset)
            return; // superseded
        if (valueIsLivePoint(value)) {
            if (validateLivePointValue(value)) {
                if (live_points)
                    ++*live_points;
            } else if (bad) {
                ++*bad;
            }
            return;
        }
        ExperimentResult result;
        if (!decodeExperimentResult(value, result)) {
            if (bad)
                ++*bad;
            return;
        }
        fn(key, result);
    });
}

ExperimentStoreStats
ExperimentStore::stats() const
{
    std::shared_lock lock(_mutex);
    RecordLogStats ls = _log->stats();
    ExperimentStoreStats s;
    s.records = _index.size();
    s.logRecords = ls.records;
    s.bytes = ls.bytes;
    s.livePointRecords = _livePointSizes.size();
    for (const auto &[digest, size] : _livePointSizes)
        s.livePointBytes += size;
    s.truncatedBytes = ls.truncatedBytes;
    s.hits = _hits;
    s.misses = _misses;
    s.appends = ls.appends;
    s.syncs = ls.syncs;
    s.failedAppends = ls.failedAppends;
    s.failedSyncs = ls.failedSyncs;
    s.degraded = _degraded;
    s.degradedMarker = _markerOnDisk;
    return s;
}

const std::string &
ExperimentStore::logPath() const
{
    return _log->path();
}

bool
ExperimentStore::degraded() const
{
    std::shared_lock lock(_mutex);
    return _degraded;
}

std::string
ExperimentStore::markerPath() const
{
    return _dir + "/" + kDegradedMarker;
}

void
ExperimentStore::noteDegradedLocked()
{
    if (_degraded)
        return;
    _degraded = true;
    warn("experiment store: I/O failure on '%s'; degraded to "
         "memory-only — results from here on are not persisted",
         _dir.c_str());
    // Best-effort persistent evidence for storectl verify; if even
    // this write fails (the same full disk that degraded us) there is
    // nothing more to do. Goes through the store.write site so chaos
    // plans exercise this path too.
    int fd = ::open(markerPath().c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd >= 0) {
        static const char kText[] = "degraded\n";
        ssize_t n;
        do {
            n = faultWriteStore(fd, kText, sizeof(kText) - 1);
        } while (n < 0 && errno == EINTR);
        if (n == static_cast<ssize_t>(sizeof(kText) - 1))
            _markerOnDisk = true;
        else
            ::remove(markerPath().c_str());
        ::close(fd);
    }
}

void
ExperimentStore::clearMarkerLocked()
{
    if (::remove(markerPath().c_str()) == 0 || errno == ENOENT) {
        _markerOnDisk = false;
        inform("experiment store: degradation marker cleared after a "
               "clean write");
    }
}

} // namespace pvar
