/**
 * @file
 * Crash-safe append-only record log.
 *
 * The durability primitive under the experiment store: a single flat
 * file of length-prefixed, CRC32-checksummed (key, value) records.
 * Appends only ever grow the file, so the only failure mode a crash
 * (or a torn write) can produce is an invalid *tail*; open() scans the
 * file once, keeps the longest prefix of valid records, and truncates
 * the rest. Each record it validates is handed to an optional visitor,
 * so an owner builds its index in that same pass. A record that
 * survives recovery round-trips bit-identically — the CRC covers every
 * payload byte — and a record that does not simply vanishes, which
 * callers treat as "recompute".
 *
 * Byte-level format (all integers little-endian; see DESIGN.md §2.4):
 *
 *   file    := magic record*
 *   magic   := "PVARLOG1"                      (8 bytes)
 *   record  := length u32 | crc32 u32 | payload
 *   payload := key_len u32 | key bytes | value_len u32 | value bytes
 *
 * `length` is the payload byte count and `crc32` is the IEEE CRC-32 of
 * the payload. Durability is batched: every syncEvery-th append (and
 * every explicit sync()) issues an fsync, so at most a bounded suffix
 * of recent appends is exposed to power loss; a SIGKILL alone loses
 * nothing that reached the page cache.
 */

#ifndef PVAR_STORE_RECORD_LOG_HH
#define PVAR_STORE_RECORD_LOG_HH

#include <cstdint>
#include <functional>
#include <string>

namespace pvar
{

/**
 * IEEE 802.3 CRC-32 (the zlib/PNG polynomial) of @p size bytes,
 * computed slicing-by-8 (eight bytes per table round).
 */
std::uint32_t crc32(const void *data, std::size_t size);

/**
 * Called with each valid record in file order: its offset (of the
 * length prefix), key and value. The strings are reused between
 * calls, so copy what must outlive the call.
 */
using RecordVisitor = std::function<void(
    std::int64_t offset, const std::string &key, const std::string &value)>;

/** Counters describing one opened log. */
struct RecordLogStats
{
    std::uint64_t records = 0;        ///< valid records in the file
    std::uint64_t bytes = 0;          ///< current file size
    std::uint64_t truncatedBytes = 0; ///< torn tail dropped at open()
    std::uint64_t appends = 0;        ///< records appended this session
    std::uint64_t syncs = 0;          ///< fsyncs issued this session
    std::uint64_t failedAppends = 0;  ///< write() failures this session
    std::uint64_t failedSyncs = 0;    ///< fsync() failures this session
};

/**
 * One open record log file. Not thread-safe by itself: readAt() and
 * scan() may run concurrently with each other, but append(), sync()
 * and destruction need exclusive access, which the owning
 * ExperimentStore's shared mutex provides.
 */
class RecordLog
{
  public:
    /**
     * Open (creating if absent) the log at @p path, recovering from
     * any torn tail. @p sync_every batches fsyncs: 1 syncs every
     * append, N syncs every Nth, 0 leaves durability to the OS.
     * Recovery reads and CRC-checks every record once and hands each
     * valid one to @p visit (may be empty) before the constructor
     * returns. Fatal when the file cannot be created or opened.
     */
    explicit RecordLog(std::string path, int sync_every = 8,
                       const RecordVisitor &visit = {});
    ~RecordLog();

    RecordLog(const RecordLog &) = delete;
    RecordLog &operator=(const RecordLog &) = delete;

    /**
     * Append one record; returns its file offset (of the length
     * prefix). Returns -1 and warns on I/O failure — the caller
     * degrades to compute-only operation.
     */
    std::int64_t append(const std::string &key,
                        const std::string &value);

    /**
     * Read the record at @p offset (as returned by append() or
     * scan()). Returns false — never throws, never crashes — on any
     * structural or checksum failure.
     */
    bool readAt(std::int64_t offset, std::string &key,
                std::string &value) const;

    /**
     * Visit every valid record in file order. Stops at the first
     * invalid record (by construction only a recovered-then-appended
     * file has none). The callback gets the record's offset.
     */
    void scan(const RecordVisitor &fn) const;

    /**
     * Flush batched appends to disk now (fsync). A failed fsync is a
     * *missed durability point*, not a success: it is counted, the log
     * is marked degraded, and the unsynced window stays open so a
     * later sync can retry.
     */
    void sync();

    /**
     * True once any append or fsync has failed this session: data may
     * have been lost, so owners should stop trusting the log for new
     * writes (the ExperimentStore downgrades to memory-only).
     */
    bool degraded() const { return _degraded; }

    RecordLogStats stats() const { return _stats; }
    const std::string &path() const { return _path; }

    /** Payload bytes one record with these sizes occupies on disk. */
    static std::size_t recordBytes(std::size_t key_size,
                                   std::size_t value_size);

  private:
    std::string _path;
    int _fd = -1;
    int _syncEvery;
    int _unsynced = 0;
    std::int64_t _end = 0; ///< append position (file size)
    bool _degraded = false;
    RecordLogStats _stats;

    void recover(const RecordVisitor &visit);
};

} // namespace pvar

#endif // PVAR_STORE_RECORD_LOG_HH
