/**
 * @file
 * Tests for the durable experiment store (src/store): the CRC32
 * record log and its torn-tail recovery, the bit-exact binary codec,
 * the digest-indexed ExperimentStore with compaction, and the
 * DurableCache warm-restart behavior.
 *
 * The fault-injection suite enforces the PR's recovery property: for
 * ANY prefix truncation of the log — every byte boundary, including
 * mid-header — and for a bit flip at every byte of the final record,
 * open() succeeds and every surviving record round-trips
 * bit-identically. Corruption may cost records, never correctness.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "accubench/protocol.hh"
#include "device/registry.hh"
#include "fault/fault.hh"
#include "report/json.hh"
#include "sim/bytes.hh"
#include "sim/logging.hh"
#include "store/codec.hh"
#include "store/durable_cache.hh"
#include "store/record_log.hh"
#include "store/result_cache.hh"
#include "store/store.hh"

using namespace pvar;

namespace
{

/** Quiet logging for the duration of one test. */
class QuietLog
{
  public:
    QuietLog() : _prev(setLogLevel(LogLevel::Quiet)) {}
    ~QuietLog() { setLogLevel(_prev); }

  private:
    LogLevel _prev;
};

/**
 * An existing but empty directory under the gtest temp root.
 * Leftovers from a previous ctest run would make opens non-fresh, so
 * every file this suite might create is removed.
 */
std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "/pvar_store_" + name;
    ::mkdir(dir.c_str(), 0755); // EEXIST is fine
    for (const char *leftover :
         {"/experiments.log", "/experiments.log.compact", "/test.log",
          "/test.log.victim", "/store.degraded"})
        std::remove((dir + leftover).c_str());
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << path;
    return std::string(std::istreambuf_iterator<char>(f),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << path;
}

/**
 * A small synthetic result exercising the codec's awkward corners:
 * denormals, negative zero, values with no short decimal rendering,
 * multi-channel traces.
 */
ExperimentResult
makeResult(int seed)
{
    ExperimentResult r;
    r.unitId = "unit-" + std::to_string(seed);
    r.model = "Synthetic S" + std::to_string(seed);
    r.socName = "SX-" + std::to_string(100 + seed);
    for (int i = 0; i < 2 + seed % 2; ++i) {
        IterationResult it;
        it.score = 1574.0 + seed * (1.0 / 3.0) + i;
        it.workloadEnergy = Joules(0.1 + 0.2 * i);
        it.totalEnergy = Joules(5e-324 * (seed + 1));
        it.warmupTime = Time::sec(60);
        it.cooldownTime = Time::usec(123456789 + seed);
        it.workloadTime = Time::minutes(4);
        it.tempAtWorkloadStart = Celsius(seed == 0 ? -0.0 : 31.7);
        it.peakWorkloadTemp = Celsius(52.5 + 1e-9 * seed);
        it.cooldownReachedTarget = (seed + i) % 2 == 0;
        r.iterations.push_back(it);
    }
    for (int s = 0; s < 3 + seed; ++s) {
        r.trace.record("temp_c", Time::msec(10 * s), 26.0 + s * 0.125);
        r.trace.record("power_w", Time::msec(10 * s),
                       1.0 / (s + 1.0));
    }
    return r;
}

/**
 * A structurally valid live-point value (codec v3 framing and digest)
 * with one opaque section whose payload depends on @p seed.
 */
std::string
makeLivePoint(int seed)
{
    ByteWriter body;
    body.u32(1); // n_sections
    body.u32(7); // section tag
    body.str(std::string(20 + seed, static_cast<char>('a' + seed % 26)));
    std::string sections = body.take();
    ByteWriter w;
    w.u32(kLivePointVersion);
    w.u64(fnv1a64(sections.data(), sections.size()));
    return w.take() + sections;
}

/** Bit-at-a-time IEEE CRC-32: the definition, with no tables. */
std::uint32_t
bytewiseCrc32(const unsigned char *p, std::size_t size)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

} // namespace

// ---------------------------------------------------------------------
// CRC32.
// ---------------------------------------------------------------------

TEST(Crc32, MatchesKnownVectors)
{
    // The canonical IEEE CRC-32 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
    EXPECT_EQ(crc32("a", 1), 0xe8b7be43u);
    // Single-bit sensitivity.
    EXPECT_NE(crc32("1234567890", 10), crc32("1234567891", 10));
}

TEST(Crc32, SlicedMatchesBytewiseReference)
{
    // Every length through two full slicing rounds plus every tail
    // length, at every start alignment of the 8-byte loads.
    std::vector<unsigned char> buf(257 + 8);
    std::uint32_t x = 0x12345678u;
    for (unsigned char &b : buf) {
        x = x * 1664525u + 1013904223u;
        b = static_cast<unsigned char>(x >> 24);
    }
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 257; ++len) {
            ASSERT_EQ(crc32(buf.data() + align, len),
                      bytewiseCrc32(buf.data() + align, len))
                << "align " << align << " len " << len;
        }
    }
}

// ---------------------------------------------------------------------
// Binary codec.
// ---------------------------------------------------------------------

TEST(StoreCodec, RoundTripsBitExactly)
{
    for (int seed = 0; seed < 3; ++seed) {
        ExperimentResult original = makeResult(seed);
        std::string bytes = encodeExperimentResult(original);

        ExperimentResult decoded;
        ASSERT_TRUE(decodeExperimentResult(bytes, decoded));

        // Bit-identical: re-encoding the decode gives the same bytes,
        // which covers every field including the -0.0s and denormals.
        EXPECT_EQ(encodeExperimentResult(decoded), bytes);

        EXPECT_EQ(decoded.unitId, original.unitId);
        EXPECT_EQ(decoded.model, original.model);
        EXPECT_EQ(decoded.socName, original.socName);
        ASSERT_EQ(decoded.iterations.size(),
                  original.iterations.size());
        for (std::size_t i = 0; i < original.iterations.size(); ++i) {
            const IterationResult &a = original.iterations[i];
            const IterationResult &b = decoded.iterations[i];
            EXPECT_EQ(a.score, b.score);
            EXPECT_EQ(a.workloadEnergy.value(),
                      b.workloadEnergy.value());
            EXPECT_EQ(a.totalEnergy.value(), b.totalEnergy.value());
            EXPECT_EQ(a.warmupTime, b.warmupTime);
            EXPECT_EQ(a.cooldownTime, b.cooldownTime);
            EXPECT_EQ(a.workloadTime, b.workloadTime);
            EXPECT_EQ(a.cooldownReachedTarget,
                      b.cooldownReachedTarget);
        }
        ASSERT_EQ(decoded.trace.channelNames(),
                  original.trace.channelNames());
        const auto &a = original.trace.channel("temp_c").samples();
        const auto &b = decoded.trace.channel("temp_c").samples();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t s = 0; s < a.size(); ++s) {
            EXPECT_EQ(a[s].when, b[s].when);
            EXPECT_EQ(a[s].value, b[s].value);
        }
    }
}

TEST(StoreCodec, DecodingIsTotal)
{
    ExperimentResult scratch;

    // Every strict prefix of a valid encoding fails cleanly...
    std::string bytes = encodeExperimentResult(makeResult(1));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(decodeExperimentResult(bytes.substr(0, len),
                                            scratch))
            << "prefix of " << len << " bytes decoded";
    }
    // ...and so do trailing garbage, a wrong version, and noise.
    EXPECT_TRUE(decodeExperimentResult(bytes, scratch));
    EXPECT_FALSE(decodeExperimentResult(bytes + "x", scratch));
    std::string wrong_version = bytes;
    wrong_version[0] = 9;
    EXPECT_FALSE(decodeExperimentResult(wrong_version, scratch));
    EXPECT_FALSE(decodeExperimentResult("not a record", scratch));
    // A fabricated huge count must not drive a huge allocation.
    std::string huge(8, '\xff');
    huge[0] = 1;
    huge[1] = huge[2] = huge[3] = 0;
    EXPECT_FALSE(decodeExperimentResult(huge, scratch));
}

// ---------------------------------------------------------------------
// Record log: append, reopen, recover.
// ---------------------------------------------------------------------

TEST(RecordLog, AppendReadScanReopen)
{
    QuietLog quiet;
    std::string path = freshDir("log_basic") + "/test.log";

    std::vector<std::int64_t> offsets;
    {
        RecordLog log(path, 1);
        offsets.push_back(log.append("key-a", "value-a"));
        offsets.push_back(log.append("key-b", std::string(1000, 'b')));
        offsets.push_back(log.append("", "")); // empty key and value
        EXPECT_EQ(log.stats().records, 3u);
        EXPECT_EQ(log.stats().appends, 3u);
        EXPECT_GE(log.stats().syncs, 3u);

        std::string k, v;
        ASSERT_TRUE(log.readAt(offsets[1], k, v));
        EXPECT_EQ(k, "key-b");
        EXPECT_EQ(v, std::string(1000, 'b'));
    }

    RecordLog reopened(path);
    EXPECT_EQ(reopened.stats().records, 3u);
    EXPECT_EQ(reopened.stats().truncatedBytes, 0u);
    std::vector<std::string> keys;
    reopened.scan([&](std::int64_t offset, const std::string &k,
                      const std::string &v) {
        keys.push_back(k);
        std::string k2, v2;
        EXPECT_TRUE(reopened.readAt(offset, k2, v2));
        EXPECT_EQ(k2, k);
        EXPECT_EQ(v2, v);
    });
    EXPECT_EQ(keys,
              (std::vector<std::string>{"key-a", "key-b", ""}));
}

// ---------------------------------------------------------------------
// Fault injection: truncation at every byte, bit flips in the tail.
// ---------------------------------------------------------------------

namespace
{

struct GoldenLog
{
    std::string path;          ///< pristine log file bytes live here
    std::string bytes;         ///< full file content
    std::vector<std::string> keys;
    std::vector<std::string> values;
    std::vector<std::size_t> ends; ///< file size after each append
};

/** Build a 3-record log and remember every record boundary. */
GoldenLog
buildGoldenLog(const std::string &name)
{
    GoldenLog g;
    g.path = freshDir(name) + "/test.log";
    RecordLog log(g.path, 1);
    for (int i = 0; i < 3; ++i) {
        g.keys.push_back("golden-key-" + std::to_string(i));
        g.values.push_back(
            encodeExperimentResult(makeResult(i)).substr(0, 200));
        log.append(g.keys.back(), g.values.back());
        g.ends.push_back(static_cast<std::size_t>(
            log.stats().bytes));
    }
    log.sync();
    g.bytes = readFile(g.path);
    EXPECT_EQ(g.bytes.size(), g.ends.back());
    return g;
}

/**
 * Open @p path and assert it recovers to exactly the longest valid
 * prefix of @p g: every surviving record bit-identical to the
 * original, every lost record gone, nothing invented.
 */
void
expectLongestValidPrefix(const GoldenLog &g, const std::string &path,
                         std::size_t max_survivors)
{
    RecordLog log(path);
    RecordLogStats s = log.stats();
    ASSERT_LE(s.records, max_survivors);

    std::size_t idx = 0;
    log.scan([&](std::int64_t, const std::string &k,
                 const std::string &v) {
        ASSERT_LT(idx, g.keys.size());
        EXPECT_EQ(k, g.keys[idx]);
        EXPECT_EQ(v, g.values[idx]);
        ++idx;
    });
    EXPECT_EQ(idx, s.records);

    // Recovery is idempotent: a second open truncates nothing more.
    RecordLog again(path);
    EXPECT_EQ(again.stats().records, s.records);
    EXPECT_EQ(again.stats().truncatedBytes, 0u);
}

} // namespace

TEST(RecordLogFaultInjection, RecoversFromEveryPrefixTruncation)
{
    QuietLog quiet;
    GoldenLog g = buildGoldenLog("trunc");
    std::string victim = g.path + ".victim";

    for (std::size_t cut = 0; cut < g.bytes.size(); ++cut) {
        writeFileBytes(victim, g.bytes.substr(0, cut));

        // How many whole records fit in the first `cut` bytes?
        std::size_t survivors = 0;
        while (survivors < g.ends.size() &&
               g.ends[survivors] <= cut)
            ++survivors;

        expectLongestValidPrefix(g, victim, survivors);
        RecordLog log(victim);
        EXPECT_EQ(log.stats().records, survivors)
            << "truncated at byte " << cut;
    }
}

TEST(RecordLogFaultInjection, DropsFinalRecordOnAnyBitFlip)
{
    QuietLog quiet;
    GoldenLog g = buildGoldenLog("flip");
    std::string victim = g.path + ".victim";

    // Flip one bit in every byte of the final record; the first two
    // records must always survive intact and the damaged tail must
    // never surface as data.
    for (std::size_t pos = g.ends[1]; pos < g.ends[2]; ++pos) {
        for (unsigned char mask : {0x01, 0x80}) {
            std::string corrupt = g.bytes;
            corrupt[pos] = static_cast<char>(
                static_cast<unsigned char>(corrupt[pos]) ^ mask);
            writeFileBytes(victim, corrupt);

            RecordLog log(victim);
            EXPECT_EQ(log.stats().records, 2u)
                << "bit flip at byte " << pos;
            std::size_t idx = 0;
            log.scan([&](std::int64_t, const std::string &k,
                         const std::string &v) {
                ASSERT_LT(idx, 2u);
                EXPECT_EQ(k, g.keys[idx]);
                EXPECT_EQ(v, g.values[idx]);
                ++idx;
            });
            EXPECT_EQ(idx, 2u);
        }
    }
}

TEST(RecordLogFaultInjection, RefusesForeignFiles)
{
    QuietLog quiet;
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string path = freshDir("foreign") + "/test.log";
    writeFileBytes(path, "{\"not\": \"a record log\"}");
    EXPECT_EXIT(RecordLog log(path), testing::ExitedWithCode(1),
                "not a pvar record log");
}

// ---------------------------------------------------------------------
// ExperimentStore: durability, verification, compaction.
// ---------------------------------------------------------------------

TEST(ExperimentStore, PersistsAcrossInstances)
{
    QuietLog quiet;
    std::string dir = freshDir("persist");
    std::string key_a = "{\"experiment\": \"a\"}";
    std::string key_b = "{\"experiment\": \"b\"}";
    ExperimentResult a = makeResult(0);
    ExperimentResult b = makeResult(1);

    {
        ExperimentStore store(dir);
        ExperimentResult out;
        EXPECT_FALSE(store.get(key_a, out));
        store.put(key_a, a);
        store.put(key_b, b);
        EXPECT_TRUE(store.get(key_a, out));
        EXPECT_EQ(encodeExperimentResult(out),
                  encodeExperimentResult(a));
        EXPECT_EQ(store.stats().records, 2u);
    }

    ExperimentStore reopened(dir);
    EXPECT_EQ(reopened.stats().records, 2u);
    ExperimentResult out;
    EXPECT_TRUE(reopened.get(key_b, out));
    EXPECT_EQ(encodeExperimentResult(out), encodeExperimentResult(b));
    EXPECT_EQ(reopened.stats().hits, 1u);
}

TEST(ExperimentStore, UndecodableValueDegradesToMiss)
{
    QuietLog quiet;
    std::string dir = freshDir("degrade");
    std::string key = "{\"experiment\": \"poisoned\"}";
    {
        ExperimentStore store(dir);
        store.put(key, makeResult(0));
    }
    // Poison the store by superseding the record with a value the
    // codec rejects, through the raw log (same key, same digest).
    {
        RecordLog log(dir + "/experiments.log", 1);
        log.append(key, "garbage that is not a codec value");
    }

    ExperimentStore store(dir);
    ExperimentResult out;
    EXPECT_FALSE(store.get(key, out)); // miss, not a wrong result
    EXPECT_EQ(store.stats().misses, 1u);

    // The caller's recompute supersedes the poison durably.
    store.put(key, makeResult(2));
    EXPECT_TRUE(store.get(key, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(2)));
}

TEST(ExperimentStore, CompactionDropsSupersededAndOrphaned)
{
    QuietLog quiet;
    std::string dir = freshDir("compact");
    std::string key = "{\"experiment\": \"rewritten\"}";
    std::string other = "{\"experiment\": \"other\"}";

    ExperimentStore store(dir);
    store.put(key, makeResult(0));
    store.put(key, makeResult(1)); // supersedes
    store.put(key, makeResult(2)); // supersedes again
    store.put(other, makeResult(0));
    store.sync();

    ExperimentStoreStats before = store.stats();
    EXPECT_EQ(before.records, 2u);
    EXPECT_EQ(before.logRecords, 4u);

    EXPECT_EQ(store.compact(), 2u);
    ExperimentStoreStats after = store.stats();
    EXPECT_EQ(after.records, 2u);
    EXPECT_EQ(after.logRecords, 2u);
    EXPECT_LT(after.bytes, before.bytes);

    // The survivors are the latest versions, bit-identical.
    ExperimentResult out;
    ASSERT_TRUE(store.get(key, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(2)));
    ASSERT_TRUE(store.get(other, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(0)));

    // And the compacted file reopens clean.
    ExperimentStore reopened(dir);
    EXPECT_EQ(reopened.stats().records, 2u);
    EXPECT_EQ(reopened.stats().truncatedBytes, 0u);
}

TEST(ExperimentStore, EnospcDuringCompactionAbortsAndKeepsOriginal)
{
    QuietLog quiet;
    std::string dir = freshDir("compact_enospc");
    std::string key = "{\"experiment\": \"rewritten\"}";
    std::string other = "{\"experiment\": \"other\"}";

    ExperimentStore store(dir);
    store.put(key, makeResult(0));
    store.put(key, makeResult(1)); // superseded below
    store.put(key, makeResult(2));
    store.put(other, makeResult(0));
    store.sync();

    // Disk full for every write(2) from here: the compaction's
    // rewrite cannot even lay down the sibling file's header.
    {
        FaultPlan plan(1);
        FaultRule rule;
        rule.site = FaultSite::StoreWrite;
        rule.mode = SysFaultMode::NoSpace;
        rule.every = 1;
        plan.addRule(rule);
        installFaultPlan(std::make_shared<FaultPlan>(plan));
    }
    EXPECT_EQ(store.compact(), 0u);
    clearFaultPlan();

    // The abort left the original log live and whole — no partial
    // rewrite renamed over it, no degradation, no stray sibling.
    EXPECT_FALSE(store.degraded());
    ExperimentStoreStats after = store.stats();
    EXPECT_EQ(after.records, 2u);
    EXPECT_EQ(after.logRecords, 4u);
    struct stat st{};
    EXPECT_NE(::stat((dir + "/experiments.log.compact").c_str(), &st),
              0);
    ExperimentResult out;
    ASSERT_TRUE(store.get(key, out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(2)));

    // With space back, the same store compacts fine.
    EXPECT_EQ(store.compact(), 2u);
    ExperimentStore reopened(dir);
    EXPECT_EQ(reopened.stats().records, 2u);
    EXPECT_EQ(reopened.stats().truncatedBytes, 0u);
}

TEST(ExperimentStore, SinglePassOpenMatchesRescan)
{
    QuietLog quiet;
    std::string dir = freshDir("single_pass");
    std::string log_path = dir + "/experiments.log";
    std::map<std::string, std::string> results;     // key → encoded
    std::map<std::string, std::string> live_points; // key → value
    {
        ExperimentStore store(dir);
        for (int i = 0; i < 4; ++i) {
            std::string key = "{\"result\": " + std::to_string(i) + "}";
            store.put(key, makeResult(i));
            store.put(key, makeResult(i + 10)); // supersedes
            results[key] = encodeExperimentResult(makeResult(i + 10));
        }
        for (int i = 0; i < 3; ++i) {
            std::string key = "{\"live\": " + std::to_string(i) + "}";
            store.putBytes(key, makeLivePoint(i));
            store.putBytes(key, makeLivePoint(i + 5)); // supersedes
            live_points[key] = makeLivePoint(i + 5);
        }
        // Kinds supersede each other too: a result over a live point
        // and a live point over a result.
        store.putBytes("{\"result\": 0}", makeLivePoint(9));
        live_points["{\"result\": 0}"] = makeLivePoint(9);
        results.erase("{\"result\": 0}");
        store.put("{\"live\": 0}", makeResult(20));
        results["{\"live\": 0}"] = encodeExperimentResult(makeResult(20));
        live_points.erase("{\"live\": 0}");
        store.sync();
    }
    // A torn tail: the first bytes of a record that never finished.
    const std::string torn("\x40\x00\x00\x00\x12\x34", 6);
    {
        std::ofstream f(log_path, std::ios::binary | std::ios::app);
        f.write(torn.data(), static_cast<std::streamsize>(torn.size()));
    }

    // The reference: a separate rescan of the same bytes, indexing
    // the last record per digest the way a second pass would.
    std::string victim = dir + "/test.log";
    writeFileBytes(victim, readFile(log_path));
    std::map<std::string, std::pair<bool, std::uint64_t>> expected;
    std::uint64_t expected_truncated;
    {
        RecordLog log(victim);
        expected_truncated = log.stats().truncatedBytes;
        log.scan([&](std::int64_t, const std::string &k,
                     const std::string &v) {
            expected[contentDigest(k)] = {valueIsLivePoint(v), v.size()};
        });
    }
    std::uint64_t expected_lp = 0, expected_lp_bytes = 0;
    for (const auto &[digest, kind] : expected) {
        if (kind.first) {
            ++expected_lp;
            expected_lp_bytes += kind.second;
        }
    }
    EXPECT_EQ(expected_truncated, torn.size());

    ExperimentStore store(dir);
    ExperimentStoreStats open = store.stats();
    EXPECT_EQ(open.records, expected.size());
    EXPECT_EQ(open.records, results.size() + live_points.size());
    EXPECT_EQ(open.livePointRecords, expected_lp);
    EXPECT_EQ(open.livePointRecords, live_points.size());
    EXPECT_EQ(open.livePointBytes, expected_lp_bytes);
    EXPECT_EQ(open.truncatedBytes, expected_truncated);

    // compact() reopens through the same single pass over a log with
    // no superseded records and no tail.
    EXPECT_EQ(store.compact(), open.logRecords - open.records);
    ExperimentStoreStats after = store.stats();
    EXPECT_EQ(after.records, open.records);
    EXPECT_EQ(after.logRecords, open.records);
    EXPECT_EQ(after.livePointRecords, open.livePointRecords);
    EXPECT_EQ(after.livePointBytes, open.livePointBytes);
    EXPECT_EQ(after.truncatedBytes, 0u);

    for (const auto &[key, encoded] : results) {
        ExperimentResult out;
        ASSERT_TRUE(store.get(key, out)) << key;
        EXPECT_EQ(encodeExperimentResult(out), encoded) << key;
    }
    for (const auto &[key, value] : live_points) {
        std::string out;
        ASSERT_TRUE(store.getBytes(key, out)) << key;
        EXPECT_EQ(out, value) << key;
    }
    EXPECT_EQ(store.stats().misses, 0u);
}

TEST(ExperimentStore, ConcurrentReadersWithWriterAndCompaction)
{
    QuietLog quiet;
    std::string dir = freshDir("concurrent");
    constexpr int kResults = 6, kLivePoints = 3, kFlips = 2;
    constexpr int kRounds = 24;
    auto result_key = [](int i) {
        return "{\"result\": " + std::to_string(i) + "}";
    };
    auto live_key = [](int i) {
        return "{\"live\": " + std::to_string(i) + "}";
    };
    auto flip_key = [](int i) {
        return "{\"flip\": " + std::to_string(i) + "}";
    };
    // Version v of each key; the writer only ever writes these, so a
    // hit must be bit-identical to one of them.
    auto result_value = [](int i, int v) {
        return makeResult(i + 100 * v);
    };
    auto live_value = [](int i, int v) {
        return makeLivePoint(i + 3 * v);
    };
    std::map<std::string, std::set<std::string>> allowed;
    for (int v = 0; v <= kRounds; ++v) {
        for (int i = 0; i < kResults; ++i)
            allowed[result_key(i)].insert(
                encodeExperimentResult(result_value(i, v)));
        for (int i = 0; i < kLivePoints; ++i)
            allowed[live_key(i)].insert(live_value(i, v));
        for (int i = 0; i < kFlips; ++i)
            allowed[flip_key(i)].insert(
                encodeExperimentResult(result_value(50 + i, v)));
    }

    ExperimentStore store(dir);
    for (int i = 0; i < kResults; ++i)
        store.put(result_key(i), result_value(i, 0));
    for (int i = 0; i < kLivePoints; ++i)
        store.putBytes(live_key(i), live_value(i, 0));
    for (int i = 0; i < kFlips; ++i)
        store.put(flip_key(i), result_value(50 + i, 0));

    std::atomic<bool> writing{true};
    std::atomic<std::uint64_t> calls{0}, misses{0}, flip_misses{0};
    std::atomic<std::uint64_t> wrong{0};
    auto reader = [&](int id) {
        for (int n = 0; writing.load() || n < 20; ++n) {
            int i = (n + id) % (kResults + kLivePoints + kFlips);
            bool hit;
            std::string got, key;
            if (i < kResults) {
                key = result_key(i);
            } else if (i < kResults + kLivePoints) {
                key = live_key(i - kResults);
            } else {
                key = flip_key(i - kResults - kLivePoints);
            }
            if (i >= kResults && i < kResults + kLivePoints) {
                hit = store.getBytes(key, got);
            } else {
                ExperimentResult out;
                hit = store.get(key, out);
                if (hit)
                    got = encodeExperimentResult(out);
            }
            ++calls;
            if (!hit) {
                // Only a flip key can miss: its record may be a live
                // point, which get() must refuse, or an entry such a
                // refusal dropped before the writer's next put().
                ++misses;
                if (i >= kResults + kLivePoints)
                    ++flip_misses;
            } else if (!allowed.at(key).count(got)) {
                ++wrong;
            }
        }
    };
    std::vector<std::thread> readers;
    for (int id = 0; id < 4; ++id)
        readers.emplace_back(reader, id);

    std::thread writer([&] {
        for (int v = 1; v <= kRounds; ++v) {
            for (int i = 0; i < kResults; ++i)
                store.put(result_key(i), result_value(i, v));
            for (int i = 0; i < kLivePoints; ++i)
                store.putBytes(live_key(i), live_value(i, v));
            for (int i = 0; i < kFlips; ++i) {
                store.putBytes(flip_key(i), live_value(i, v));
                std::this_thread::yield();
                store.put(flip_key(i), result_value(50 + i, v));
            }
            if (v % 6 == 0)
                store.compact();
        }
        writing = false;
    });
    writer.join();
    for (std::thread &t : readers)
        t.join();

    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(misses.load(), flip_misses.load());
    ExperimentStoreStats s = store.stats();
    EXPECT_EQ(s.hits + s.misses, calls.load());
    EXPECT_EQ(s.misses, misses.load());
    EXPECT_FALSE(s.degraded);

    // The writer's last versions are what every key now holds.
    for (int i = 0; i < kResults; ++i) {
        ExperimentResult out;
        ASSERT_TRUE(store.get(result_key(i), out));
        EXPECT_EQ(encodeExperimentResult(out),
                  encodeExperimentResult(result_value(i, kRounds)));
    }
    for (int i = 0; i < kLivePoints; ++i) {
        std::string out;
        ASSERT_TRUE(store.getBytes(live_key(i), out));
        EXPECT_EQ(out, live_value(i, kRounds));
    }
    for (int i = 0; i < kFlips; ++i) {
        ExperimentResult out;
        ASSERT_TRUE(store.get(flip_key(i), out));
        EXPECT_EQ(encodeExperimentResult(out),
                  encodeExperimentResult(result_value(50 + i, kRounds)));
    }
}

// ---------------------------------------------------------------------
// DurableCache: warm restarts and resumable studies.
// ---------------------------------------------------------------------

TEST(DurableCache, WarmRestartSkipsRecomputation)
{
    QuietLog quiet;
    std::string dir = freshDir("warm");
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    ExperimentConfig cfg;

    int computes = 0;
    auto compute = [&]() {
        ++computes;
        return makeResult(7);
    };

    {
        DurableCache cache(dir);
        ExperimentResult cold =
            cache.getOrCompute(entry, 0, cfg, compute);
        ExperimentResult memory_warm =
            cache.getOrCompute(entry, 0, cfg, compute);
        EXPECT_EQ(computes, 1);
        EXPECT_EQ(encodeExperimentResult(cold),
                  encodeExperimentResult(memory_warm));
        EXPECT_EQ(cache.lruStats().hits, 1u);
        EXPECT_EQ(cache.storeStats().appends, 1u);
    }

    // A new process: empty LRU, warm store.
    DurableCache restarted(dir);
    ExperimentResult warm =
        restarted.getOrCompute(entry, 0, cfg, compute);
    EXPECT_EQ(computes, 1) << "restart must not recompute";
    EXPECT_EQ(encodeExperimentResult(warm),
              encodeExperimentResult(makeResult(7)));
    EXPECT_EQ(restarted.storeStats().hits, 1u);

    // A different unit still computes.
    restarted.getOrCompute(entry, 1, cfg, compute);
    EXPECT_EQ(computes, 2);
}

TEST(DurableCache, ResumedStudyIsByteIdenticalAndSkipsDoneWork)
{
    QuietLog quiet;
    std::string dir = freshDir("resume");

    // The two-unit fleet of the service tests, shrunk from a builtin.
    const RegistryEntry &base = DeviceRegistry::builtin().at("SD-805");
    RegistryEntry two_units = base;
    two_units.units = {base.units.at(0), base.units.at(1)};

    StudyConfig cfg;
    cfg.iterations = 1;

    // Reference: the uncached study bytes.
    std::string reference =
        toJson(std::vector<SocStudy>{runEntryStudy(two_units, cfg)});

    // "Killed" run: only unit 0 finished before the process died.
    {
        DurableCache cache(dir);
        StudyConfig partial = cfg;
        partial.cache = &cache;
        runUnitStudy(two_units, 0, partial);
        EXPECT_EQ(cache.storeStats().appends, 2u); // 2 modes
        // flushPending() ran at the study boundary: the records are
        // on disk even though sync_every (8) was never reached.
        EXPECT_GE(cache.storeStats().syncs, 1u);
    }

    // Resumed run in a fresh process: unit 0 comes from the store,
    // unit 1 is computed, and the bytes match the uncached study.
    DurableCache cache(dir);
    StudyConfig resumed = cfg;
    resumed.cache = &cache;
    std::string out =
        toJson(std::vector<SocStudy>{runEntryStudy(two_units, resumed)});
    EXPECT_EQ(out, reference);
    EXPECT_EQ(cache.storeStats().hits, 2u);   // unit 0, both modes
    EXPECT_EQ(cache.storeStats().misses, 2u); // unit 1, both modes
    EXPECT_EQ(cache.storeStats().records, 4u);

    // Running the whole study again is now pure store traffic.
    DurableCache third(dir);
    StudyConfig warm = cfg;
    warm.cache = &third;
    EXPECT_EQ(toJson(std::vector<SocStudy>{
                  runEntryStudy(two_units, warm)}),
              reference);
    EXPECT_EQ(third.storeStats().hits, 4u);
    EXPECT_EQ(third.storeStats().misses, 0u);
}

// ---------------------------------------------------------------------
// Codec v2: the supervision outcome rides at the end of the record.
// ---------------------------------------------------------------------

TEST(StoreCodec, SupervisionOutcomeRoundTrips)
{
    ExperimentResult original = makeResult(2);
    original.status = ExperimentStatus::TransientFault;
    original.attempts = 3;
    original.quarantined = true;

    std::string bytes = encodeExperimentResult(original);
    ExperimentResult decoded;
    ASSERT_TRUE(decodeExperimentResult(bytes, decoded));
    EXPECT_EQ(decoded.status, ExperimentStatus::TransientFault);
    EXPECT_EQ(decoded.attempts, 3u);
    EXPECT_TRUE(decoded.quarantined);
    EXPECT_EQ(encodeExperimentResult(decoded), bytes);

    // Garbage in the new tail fields must not decode.
    std::string bad_status = bytes;
    bad_status[bytes.size() - 6] = 17; // status out of range
    ExperimentResult scratch;
    EXPECT_FALSE(decodeExperimentResult(bad_status, scratch));
    std::string bad_flag = bytes;
    bad_flag[bytes.size() - 1] = 2; // quarantined neither 0 nor 1
    EXPECT_FALSE(decodeExperimentResult(bad_flag, scratch));
}

TEST(StoreCodec, DecodesVersionOneRecordsWithDefaults)
{
    // A v1 record is the v2 encoding minus the 6-byte supervision
    // tail, with the leading version u32 set to 1. Old logs keep
    // decoding; the new fields take their healthy defaults.
    ExperimentResult original = makeResult(1);
    std::string v2 = encodeExperimentResult(original);
    std::string v1 = v2.substr(0, v2.size() - 6);
    v1[0] = 1;

    ExperimentResult decoded;
    decoded.status = ExperimentStatus::PermanentFault; // must be reset
    decoded.attempts = 99;
    decoded.quarantined = true;
    ASSERT_TRUE(decodeExperimentResult(v1, decoded));
    EXPECT_EQ(decoded.status, ExperimentStatus::Ok);
    EXPECT_EQ(decoded.attempts, 1u);
    EXPECT_FALSE(decoded.quarantined);
    EXPECT_EQ(decoded.unitId, original.unitId);

    // A v1 record with the v2 tail still attached has trailing bytes
    // and must be rejected, as must a v2 record cut at the v1 length.
    std::string v1_long = v2;
    v1_long[0] = 1;
    ExperimentResult scratch;
    EXPECT_FALSE(decodeExperimentResult(v1_long, scratch));
    std::string v2_short = v2.substr(0, v2.size() - 6);
    EXPECT_FALSE(decodeExperimentResult(v2_short, scratch));
}

// ---------------------------------------------------------------------
// Graceful degradation: injected store I/O faults downgrade the store
// to memory-only; a reopen recovers.
// ---------------------------------------------------------------------

namespace
{

/** Install a plan for one test; always uninstalls on scope exit. */
class StorePlanGuard
{
  public:
    explicit StorePlanGuard(FaultPlan plan)
    {
        installFaultPlan(
            std::make_shared<FaultPlan>(std::move(plan)));
    }
    ~StorePlanGuard() { clearFaultPlan(); }
};

FaultPlan
storeFaultPlan(FaultSite site)
{
    FaultPlan plan(1);
    FaultRule rule;
    rule.site = site;
    rule.kind = FaultKind::Io;
    rule.every = 1; // every invocation
    plan.addRule(rule);
    return plan;
}

} // namespace

TEST(ExperimentStore, FailedAppendDegradesToMemoryOnly)
{
    QuietLog quiet;
    std::string dir = freshDir("degrade_append");

    {
        ExperimentStore store(dir);
        StorePlanGuard guard{storeFaultPlan(FaultSite::StoreAppend)};

        store.put("key-a", makeResult(1));
        EXPECT_TRUE(store.degraded());

        ExperimentStoreStats s = store.stats();
        EXPECT_GE(s.failedAppends, 1u);
        EXPECT_TRUE(s.degraded);
        EXPECT_TRUE(s.degradedMarker);
        struct stat st;
        EXPECT_EQ(::stat(store.markerPath().c_str(), &st), 0)
            << "marker file must exist on disk";

        // Memory-only: the lost record is a miss, further puts
        // no-op instead of retrying the broken file descriptor.
        ExperimentResult out;
        EXPECT_FALSE(store.get("key-a", out));
        store.put("key-b", makeResult(2));
        EXPECT_FALSE(store.get("key-b", out));
        EXPECT_EQ(store.stats().records, 0u);
    }

    // Reopen without the fault: the store works again. The marker
    // survives open (operators must see the evidence) and is cleared
    // by the next clean append.
    ExperimentStore reopened(dir);
    EXPECT_FALSE(reopened.degraded());
    EXPECT_TRUE(reopened.stats().degradedMarker);
    reopened.put("key-a", makeResult(1));
    EXPECT_FALSE(reopened.degraded());
    EXPECT_FALSE(reopened.stats().degradedMarker);
    ExperimentResult out;
    EXPECT_TRUE(reopened.get("key-a", out));
    EXPECT_EQ(encodeExperimentResult(out),
              encodeExperimentResult(makeResult(1)));
}

TEST(ExperimentStore, FailedFsyncCountsAndDegrades)
{
    QuietLog quiet;
    std::string dir = freshDir("degrade_fsync");

    ExperimentStore store(dir, /*sync_every=*/1);
    StorePlanGuard guard{storeFaultPlan(FaultSite::StoreFsync)};

    store.put("key-a", makeResult(1));
    ExperimentStoreStats s = store.stats();
    EXPECT_GE(s.failedSyncs, 1u);
    EXPECT_TRUE(s.degraded);
    EXPECT_TRUE(store.degraded());
}

TEST(DurableCache, DegradedStoreStillServesFromMemory)
{
    QuietLog quiet;
    std::string dir = freshDir("degrade_cache");
    const RegistryEntry &entry = DeviceRegistry::builtin().at("SD-805");
    ExperimentConfig cfg;

    DurableCache cache(dir);
    StorePlanGuard guard{storeFaultPlan(FaultSite::StoreAppend)};

    int computes = 0;
    auto compute = [&]() {
        ++computes;
        return makeResult(3);
    };
    ExperimentResult cold = cache.getOrCompute(entry, 0, cfg, compute);
    EXPECT_EQ(computes, 1);
    EXPECT_TRUE(cache.degraded());

    // Correctness is unaffected: the LRU still serves the result.
    ExperimentResult warm = cache.getOrCompute(entry, 0, cfg, compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(encodeExperimentResult(cold),
              encodeExperimentResult(warm));
    EXPECT_GE(cache.lruStats().hits, 1u);
    // flushPending on a degraded store must not throw.
    cache.flushPending();
}
