#include "store/record_log.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/fault.hh"
#include "fault/sysfault.hh"
#include "sim/logging.hh"

namespace pvar
{

namespace
{

constexpr char kMagic[8] = {'P', 'V', 'A', 'R', 'L', 'O', 'G', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic);
constexpr std::size_t kPrefixBytes = 8; // length u32 + crc32 u32

/**
 * Upper bound on one payload. Far above any real record (a full
 * 5-iteration experiment with traces is ~1 MiB); its real job is to
 * reject lengths fabricated by a corrupted prefix before they drive a
 * huge allocation.
 */
constexpr std::uint32_t kMaxPayloadBytes = 256u * 1024 * 1024;

std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

void
storeLe32(unsigned char *p, std::uint32_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
    p[2] = static_cast<unsigned char>(v >> 16);
    p[3] = static_cast<unsigned char>(v >> 24);
}

/** pread() exactly @p size bytes; false on EOF, short read, or error. */
bool
preadAll(int fd, void *buf, std::size_t size, std::int64_t offset)
{
    unsigned char *p = static_cast<unsigned char *>(buf);
    while (size > 0) {
        ssize_t n = ::pread(fd, p, size, offset);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        p += n;
        size -= static_cast<std::size_t>(n);
        offset += n;
    }
    return true;
}

// Goes through the store.write fault site: an injected short write
// retries here exactly like a real one, and a following ENOSPC hit
// leaves a torn record for recovery to truncate.
bool
writeAll(int fd, const void *buf, std::size_t size)
{
    const unsigned char *p = static_cast<const unsigned char *>(buf);
    while (size > 0) {
        ssize_t n = faultWriteStore(fd, p, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial: kCrc[0] is
 * the classic byte table, and kCrc[k][i] advances kCrc[k-1][i] by one
 * more zero byte, so one round folds eight input bytes at once.
 */
constexpr auto kCrc = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}();

/**
 * Advance the raw (pre-inverted) CRC register @p c over @p size
 * bytes, so a record's payload can be checked piecewise as it lands
 * in its destination strings.
 */
std::uint32_t
crc32Update(std::uint32_t c, const unsigned char *p, std::size_t size)
{
    for (; size >= 8; p += 8, size -= 8) {
        std::uint32_t lo = c ^ loadLe32(p);
        std::uint32_t hi = loadLe32(p + 4);
        c = kCrc[7][lo & 0xffu] ^ kCrc[6][(lo >> 8) & 0xffu] ^
            kCrc[5][(lo >> 16) & 0xffu] ^ kCrc[4][lo >> 24] ^
            kCrc[3][hi & 0xffu] ^ kCrc[2][(hi >> 8) & 0xffu] ^
            kCrc[1][(hi >> 16) & 0xffu] ^ kCrc[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        c = kCrc[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    return crc32Update(0xffffffffu,
                       static_cast<const unsigned char *>(data), size) ^
           0xffffffffu;
}

std::size_t
RecordLog::recordBytes(std::size_t key_size, std::size_t value_size)
{
    return kPrefixBytes + 4 + key_size + 4 + value_size;
}

RecordLog::RecordLog(std::string path, int sync_every,
                     const RecordVisitor &visit)
    : _path(std::move(path)), _syncEvery(sync_every)
{
    _fd = ::open(_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (_fd < 0) {
        fatal("record log: cannot open '%s': %s", _path.c_str(),
              std::strerror(errno));
    }
    recover(visit);
}

RecordLog::~RecordLog()
{
    if (_fd >= 0) {
        if (_unsynced > 0)
            sync();
        ::close(_fd);
    }
}

void
RecordLog::recover(const RecordVisitor &visit)
{
    struct stat st{};
    if (::fstat(_fd, &st) != 0) {
        fatal("record log: fstat '%s': %s", _path.c_str(),
              std::strerror(errno));
    }
    std::int64_t size = st.st_size;

    if (size == 0) {
        // Fresh file: write the header eagerly so a crash right after
        // creation still leaves a well-formed (empty) log. A full disk
        // here (ENOSPC) is a degradation, not a death sentence: the
        // log starts memory-only and every append refuses, exactly as
        // if the first append had failed. This matters most during
        // compaction, whose fresh sibling log must never fatal the
        // process.
        if (!writeAll(_fd, kMagic, kHeaderBytes)) {
            warn("record log: cannot initialize '%s': %s — store "
                 "degrades to memory-only",
                 _path.c_str(), std::strerror(errno));
            _degraded = true;
            _end = 0;
            return;
        }
        ::fsync(_fd);
        _end = static_cast<std::int64_t>(kHeaderBytes);
        _stats.bytes = kHeaderBytes;
        return;
    }

    // A crash during creation can leave a partial header. Any prefix
    // of the magic is our own torn write: reset to an empty log. A
    // mismatch is some other file — refuse to clobber it.
    std::size_t have =
        std::min<std::size_t>(static_cast<std::size_t>(size),
                              kHeaderBytes);
    char magic[kHeaderBytes];
    if (!preadAll(_fd, magic, have, 0) ||
        std::memcmp(magic, kMagic, have) != 0) {
        fatal("record log: '%s' is not a pvar record log",
              _path.c_str());
    }
    if (size < static_cast<std::int64_t>(kHeaderBytes)) {
        _stats.truncatedBytes = static_cast<std::uint64_t>(size);
        if (::ftruncate(_fd, 0) != 0 ||
            ::lseek(_fd, 0, SEEK_SET) < 0 ||
            !writeAll(_fd, kMagic, kHeaderBytes)) {
            warn("record log: cannot reinitialize '%s': %s — store "
                 "degrades to memory-only",
                 _path.c_str(), std::strerror(errno));
            _degraded = true;
            _end = 0;
            return;
        }
        ::fsync(_fd);
        _end = static_cast<std::int64_t>(kHeaderBytes);
        _stats.bytes = kHeaderBytes;
        return;
    }

    // Walk the records, keeping the longest valid prefix and handing
    // each one to the visitor: this is the only pass over the file at
    // open. readAt() bounds-checks against _end, so expose the whole
    // file while scanning and pull _end back to the last valid record
    // after.
    _end = size;
    std::int64_t pos = static_cast<std::int64_t>(kHeaderBytes);
    std::string k, v;
    while (pos < size && readAt(pos, k, v)) {
        if (visit)
            visit(pos, k, v);
        pos += static_cast<std::int64_t>(
            recordBytes(k.size(), v.size()));
        ++_stats.records;
    }

    if (pos < size) {
        _stats.truncatedBytes = static_cast<std::uint64_t>(size - pos);
        warn("record log: '%s' has a torn tail; truncating %lld bytes "
             "after %llu valid records",
             _path.c_str(), static_cast<long long>(size - pos),
             static_cast<unsigned long long>(_stats.records));
        if (::ftruncate(_fd, pos) != 0) {
            fatal("record log: cannot truncate '%s': %s",
                  _path.c_str(), std::strerror(errno));
        }
        ::fsync(_fd);
    }
    _end = pos;
    _stats.bytes = static_cast<std::uint64_t>(pos);
}

std::int64_t
RecordLog::append(const std::string &key, const std::string &value)
{
    std::size_t payload_size = 4 + key.size() + 4 + value.size();
    if (payload_size > kMaxPayloadBytes) {
        warn("record log: record too large (%zu bytes); dropped",
             payload_size);
        return -1;
    }

    if (_degraded && _end == 0) {
        // The header never made it to disk (ENOSPC at init): the file
        // is not a valid log, so records must not follow.
        ++_stats.failedAppends;
        return -1;
    }

    if (faultCheck(FaultSite::StoreAppend).fired) {
        ++_stats.failedAppends;
        if (!_degraded) {
            warn("record log: append to '%s' failed: injected I/O "
                 "fault",
                 _path.c_str());
        }
        _degraded = true;
        return -1;
    }

    // Assemble the whole record so it reaches the kernel in one
    // write(): a crash can then only tear it at the file tail, which
    // recovery truncates away.
    std::vector<unsigned char> buf(kPrefixBytes + payload_size);
    storeLe32(buf.data() + 8, static_cast<std::uint32_t>(key.size()));
    std::memcpy(buf.data() + 12, key.data(), key.size());
    storeLe32(buf.data() + 12 + key.size(),
              static_cast<std::uint32_t>(value.size()));
    std::memcpy(buf.data() + 16 + key.size(), value.data(),
                value.size());
    storeLe32(buf.data(), static_cast<std::uint32_t>(payload_size));
    storeLe32(buf.data() + 4,
              crc32(buf.data() + kPrefixBytes, payload_size));

    if (::lseek(_fd, _end, SEEK_SET) < 0 ||
        !writeAll(_fd, buf.data(), buf.size())) {
        ++_stats.failedAppends;
        warn("record log: append to '%s' failed: %s", _path.c_str(),
             std::strerror(errno));
        _degraded = true;
        return -1;
    }

    std::int64_t offset = _end;
    _end += static_cast<std::int64_t>(buf.size());
    _stats.bytes = static_cast<std::uint64_t>(_end);
    ++_stats.records;
    ++_stats.appends;

    if (_syncEvery > 0 && ++_unsynced >= _syncEvery)
        sync();
    return offset;
}

bool
RecordLog::readAt(std::int64_t offset, std::string &key,
                  std::string &value) const
{
    // length u32 | crc u32 | key_len u32 is the shortest prefix that
    // fixes where the key and value bytes lie; any valid record is
    // longer than that.
    constexpr std::size_t kHeadBytes = kPrefixBytes + 4;
    if (offset < static_cast<std::int64_t>(kHeaderBytes) ||
        offset + static_cast<std::int64_t>(kHeadBytes) > _end)
        return false;

    unsigned char head[kHeadBytes];
    if (!preadAll(_fd, head, kHeadBytes, offset))
        return false;
    std::uint32_t length = loadLe32(head);
    std::uint32_t want_crc = loadLe32(head + 4);
    std::uint32_t key_len = loadLe32(head + 8);
    if (length < 8 || length > kMaxPayloadBytes ||
        offset + static_cast<std::int64_t>(kPrefixBytes + length) >
            _end ||
        key_len > length - 8)
        return false;
    std::uint32_t value_len = length - 8 - key_len;

    // Read the key with the value_len field behind it, then the value,
    // straight into the caller's strings; the CRC follows the payload
    // piece by piece, so no staging copy is made.
    std::int64_t pos = offset + static_cast<std::int64_t>(kHeadBytes);
    key.resize(std::size_t{key_len} + 4);
    value.resize(value_len);
    if (!preadAll(_fd, key.data(), key.size(), pos) ||
        !preadAll(_fd, value.data(), value_len,
                  pos + static_cast<std::int64_t>(key.size())))
        return false;
    const auto *key_bytes =
        reinterpret_cast<const unsigned char *>(key.data());
    std::uint32_t c = crc32Update(0xffffffffu, head + 8, 4);
    c = crc32Update(c, key_bytes, key.size());
    c = crc32Update(
        c, reinterpret_cast<const unsigned char *>(value.data()),
        value_len);
    if ((c ^ 0xffffffffu) != want_crc ||
        loadLe32(key_bytes + key_len) != value_len)
        return false;
    key.resize(key_len);
    return true;
}

void
RecordLog::scan(const RecordVisitor &fn) const
{
    std::int64_t pos = static_cast<std::int64_t>(kHeaderBytes);
    std::string key, value;
    while (pos < _end && readAt(pos, key, value)) {
        fn(pos, key, value);
        pos += static_cast<std::int64_t>(
            recordBytes(key.size(), value.size()));
    }
}

void
RecordLog::sync()
{
    // _end is tracked in memory rather than re-fetched: recovery
    // established it and append() is the only writer.
    if (_fd < 0)
        return;
    int rc;
    do {
        rc = faultFsyncStore(_fd);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
        ++_stats.syncs;
        _unsynced = 0;
        return;
    }
    // The durability point was NOT reached: appends since the last
    // good fsync may not survive power loss. Keep the unsynced window
    // open so a later sync can retry, and mark the log degraded.
    ++_stats.failedSyncs;
    if (!_degraded) {
        warn("record log: fsync '%s' failed: %s — batched appends are "
             "not durable",
             _path.c_str(), std::strerror(errno));
    }
    _degraded = true;
}

} // namespace pvar
