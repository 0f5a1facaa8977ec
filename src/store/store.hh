/**
 * @file
 * The durable experiment store: a content-addressed map from the
 * canonical experiment key (the exact-double (spec, unit, config)
 * JSON the in-memory ResultCache already hashes) to a persisted
 * ExperimentResult, backed by an append-only RecordLog.
 *
 * Opening the store is one verified pass over the log: the RecordLog
 * recovers (torn tail truncated) and CRC-checks every record once,
 * handing each valid record to the store's indexer, which builds the
 * in-memory index of content digest → file offset; later records
 * supersede earlier ones with the same digest, exactly like the LRU's
 * overwrite semantics. Every read re-verifies the record's CRC, the
 * full key text against the caller's key, and decodes (or validates)
 * the value, so a digest collision or on-disk corruption degrades to
 * a miss — never a wrong result.
 *
 * Reads take the store's shared mutex only for the index lookup and
 * the pread + CRC of the record; the key comparison and the decode
 * run outside any lock, so concurrent warm reads proceed in parallel.
 * A read that fails re-locks exclusively and drops the index entry
 * only if it still names the record that failed (same offset in the
 * same log): a put() or compact() that superseded it in between keeps
 * its entry. Writes (put, putBytes, sync, compact) hold the mutex
 * exclusively.
 *
 * compact() rewrites the log keeping only the live record per digest
 * (dropping superseded versions and records whose value no longer
 * decodes), then atomically renames it into place: a crash during
 * compaction leaves either the old or the new file, both valid.
 *
 * Thread-safe: the study scheduler calls in from every worker.
 */

#ifndef PVAR_STORE_STORE_HH
#define PVAR_STORE_STORE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "accubench/result.hh"
#include "store/record_log.hh"

namespace pvar
{

/** Point-in-time store counters (surfaced on /healthz and storectl). */
struct ExperimentStoreStats
{
    std::uint64_t records = 0;        ///< live (indexed) records
    std::uint64_t logRecords = 0;     ///< records in the log file
    std::uint64_t bytes = 0;          ///< log file size
    std::uint64_t livePointRecords = 0; ///< live-point records (live)
    std::uint64_t livePointBytes = 0;   ///< their value bytes
    std::uint64_t truncatedBytes = 0; ///< torn tail dropped at open
    std::uint64_t hits = 0;           ///< get() served from disk
    std::uint64_t misses = 0;         ///< get() not found / degraded
    std::uint64_t appends = 0;        ///< put() records this session
    std::uint64_t syncs = 0;          ///< fsyncs this session
    std::uint64_t failedAppends = 0;  ///< lost writes this session
    std::uint64_t failedSyncs = 0;    ///< missed durability points
    bool degraded = false;            ///< memory-only (I/O failed)
    bool degradedMarker = false;      ///< on-disk marker present
};

class ExperimentStore
{
  public:
    /**
     * Open (creating directory and log as needed) the store rooted at
     * @p dir; the log lives at dir/experiments.log. @p sync_every
     * batches fsyncs (see RecordLog). Fatal when the directory or log
     * cannot be created — a requested --cache-dir that cannot work
     * should fail loudly at startup, not quietly compute everything.
     */
    explicit ExperimentStore(const std::string &dir,
                             int sync_every = 8);

    /**
     * Look up @p key_text. True and fills @p out only when a record
     * with the exact same key bytes is present and its value decodes;
     * every other outcome (absent, superseded-then-corrupted, digest
     * collision) is a miss.
     */
    bool get(const std::string &key_text, ExperimentResult &out);

    /** Persist (or supersede) the record for @p key_text. */
    void put(const std::string &key_text,
             const ExperimentResult &result);

    /**
     * @name Raw record access (live-point checkpoints).
     *
     * Live points persist opaque simulator state (codec v3, see
     * store/codec.hh) under the same digest-indexed log as results.
     * getBytes shares get()'s read path and safety ladder: absent,
     * key-text mismatch, or a structurally invalid live-point value
     * are all misses (the corrupt entry is dropped from the index so
     * a recompute supersedes it). putBytes refuses values that do not
     * validate as live points — the typed put() is the only door for
     * result records, so the log never holds a third kind.
     * @{
     */
    bool getBytes(const std::string &key_text, std::string &out);
    void putBytes(const std::string &key_text,
                  const std::string &value);
    /** @} */

    /** fsync any batched appends. */
    void sync();

    /**
     * Rewrite the log keeping one live, decodable record per digest.
     * Returns the number of records dropped. Fatal on I/O failure
     * while writing the replacement (the original is untouched).
     */
    std::uint64_t compact();

    /**
     * Visit every live *result* record (decoded) in file order; used
     * by pvar_storectl verify/export. Records that fail decoding are
     * reported through @p bad (may be nullptr). Live-point records
     * are not decoded here: structurally valid ones are counted into
     * @p live_points (may be nullptr), invalid ones into @p bad.
     */
    void forEach(const std::function<void(const std::string &key,
                                          const ExperimentResult &)> &fn,
                 std::uint64_t *bad = nullptr,
                 std::uint64_t *live_points = nullptr);

    ExperimentStoreStats stats() const;

    const std::string &logPath() const;

    /**
     * True once this session has lost a write or a durability point:
     * the store has downgraded to memory-only (get() misses, put()
     * no-ops) so callers keep computing correct results that simply
     * are not persisted. Reopening the directory recovers.
     */
    bool degraded() const;

    /** Path of the on-disk degradation marker (dir/store.degraded). */
    std::string markerPath() const;

  private:
    mutable std::shared_mutex _mutex;
    std::string _dir;
    int _syncEvery;
    std::unique_ptr<RecordLog> _log;
    /// Bumped whenever compact() swaps in a new log, so an offset
    /// taken from the old log never matches an entry of the new one.
    std::uint64_t _logGeneration = 0;
    std::unordered_map<std::string, std::int64_t> _index;
    // Digest → value size for live (indexed) live-point records, so
    // stats() can report kind counts without rescanning the log.
    std::unordered_map<std::string, std::uint64_t> _livePointSizes;
    std::atomic<std::uint64_t> _hits{0};
    std::atomic<std::uint64_t> _misses{0};
    bool _degraded = false;     ///< this session hit an I/O failure
    bool _markerOnDisk = false; ///< marker file currently exists

    /** Open the log at its path, indexing every record it recovers. */
    void openLogLocked();
    /** Point @p key's digest at the record at @p offset. */
    void indexLocked(std::int64_t offset, const std::string &key,
                     const std::string &value);
    /**
     * The one read path behind get() and getBytes(): find, read and
     * verify the record for @p key_text, then hand its value to
     * @p accept (decode or validate). Any failure is a miss.
     */
    bool
    readRecord(const std::string &key_text,
               const std::function<bool(std::string &value)> &accept);
    /** Append one record (the one write path behind put/putBytes). */
    void appendRecord(const std::string &key_text,
                      const std::string &value);
    void noteDegradedLocked();
    void clearMarkerLocked();
};

} // namespace pvar

#endif // PVAR_STORE_STORE_HH
