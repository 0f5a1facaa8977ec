#include "accubench/live_point.hh"

#include <cstdint>

#include "accubench/experiment.hh"
#include "sim/bytes.hh"
#include "sim/logging.hh"

namespace pvar
{

namespace
{

constexpr std::uint32_t kLivePointVersion = 4; // = store/codec.hh
constexpr std::uint32_t kSectionMeta = 1;   // clock + protocol scratch
constexpr std::uint32_t kSectionBox = 2;    // Thermabox
constexpr std::uint32_t kSectionDevice = 3; // full Device state

void
writeMeta(Time now, const AccubenchProgress &p, ByteWriter &w)
{
    const IterationResult &it = p.result;
    w.i64(now.toUsec());
    w.i64(p.deadline.toUsec());
    w.u32(0); // iterations completed: the capture point is in iteration 0
    w.i64(p.warmupStart.toUsec());
    w.i64(p.warmupEnd.toUsec());
    w.f64(p.e0.value());
    w.i64(p.cooldownStart.toUsec());
    w.i64(p.cooldownDeadline.toUsec());
    w.i64(p.pollEnd.toUsec());
    w.f64(it.score);
    w.f64(it.workloadEnergy.value());
    w.f64(it.totalEnergy.value());
    w.i64(it.warmupTime.toUsec());
    w.i64(it.cooldownTime.toUsec());
    w.i64(it.workloadTime.toUsec());
    w.f64(it.tempAtWorkloadStart.value());
    w.f64(it.peakWorkloadTemp.value());
    w.u8(it.cooldownReachedTarget ? 1 : 0);
}

bool
readMeta(ByteReader &r, Time &now, AccubenchProgress &p)
{
    std::int64_t now_us = 0, deadline = 0;
    std::int64_t wu_start = 0, wu_end = 0;
    std::int64_t cd_start = 0, cd_deadline = 0, poll_end = 0;
    std::uint32_t iter_done = 0;
    double e0 = 0.0;
    double score = 0.0, wl_energy = 0.0, total_energy = 0.0;
    std::int64_t wu_time = 0, cd_time = 0, wl_time = 0;
    double temp_start = 0.0, temp_peak = 0.0;
    std::uint8_t reached = 0;
    if (!r.i64(now_us) || !r.i64(deadline) || !r.u32(iter_done) ||
        !r.i64(wu_start) || !r.i64(wu_end) || !r.f64(e0) ||
        !r.i64(cd_start) || !r.i64(cd_deadline) || !r.i64(poll_end) ||
        !r.f64(score) || !r.f64(wl_energy) || !r.f64(total_energy) ||
        !r.i64(wu_time) || !r.i64(cd_time) || !r.i64(wl_time) ||
        !r.f64(temp_start) || !r.f64(temp_peak) || !r.u8(reached))
        return false;
    // The capture point is pinned to iteration 0; anything else is a
    // foreign or corrupt record.
    if (iter_done != 0 || reached > 1)
        return false;
    now = Time::usec(now_us);
    p.deadline = Time::usec(deadline);
    p.warmupStart = Time::usec(wu_start);
    p.warmupEnd = Time::usec(wu_end);
    p.e0 = Joules(e0);
    p.cooldownStart = Time::usec(cd_start);
    p.cooldownDeadline = Time::usec(cd_deadline);
    p.pollEnd = Time::usec(poll_end);
    IterationResult &it = p.result;
    it.score = score;
    it.workloadEnergy = Joules(wl_energy);
    it.totalEnergy = Joules(total_energy);
    it.warmupTime = Time::usec(wu_time);
    it.cooldownTime = Time::usec(cd_time);
    it.workloadTime = Time::usec(wl_time);
    it.tempAtWorkloadStart = Celsius(temp_start);
    it.peakWorkloadTemp = Celsius(temp_peak);
    it.cooldownReachedTarget = reached != 0;
    return true;
}

std::string
encodeLivePoint(const LivePointState &s)
{
    ByteWriter meta, box, device;
    writeMeta(s.sim.now(), s.progress, meta);
    s.box.saveState(box);
    s.device.saveState(device);

    ByteWriter body;
    body.u32(3);
    body.u32(kSectionMeta);
    body.str(meta.take());
    body.u32(kSectionBox);
    body.str(box.take());
    body.u32(kSectionDevice);
    body.str(device.take());
    std::string bytes = body.take();

    ByteWriter head;
    head.u32(kLivePointVersion);
    head.u64(fnv1a64(bytes.data(), bytes.size()));
    return head.take() + bytes;
}

/**
 * Load @p value into the box and device of @p s, and the clock
 * and protocol scratch into @p now / @p p. False leaves the components
 * partially written.
 */
bool
decodeLivePoint(LivePointState &s, const std::string &value, Time &now,
                AccubenchProgress &p)
{
    ByteReader r(value);
    std::uint32_t version = 0, n_sections = 0;
    std::uint64_t digest = 0;
    if (!r.u32(version) || version != kLivePointVersion)
        return false;
    // The self-check digest gates everything below: no payload byte
    // is interpreted unless the whole body hashes clean.
    if (!r.u64(digest) ||
        fnv1a64(value.data() + r.pos(), value.size() - r.pos()) !=
            digest)
        return false;
    if (!r.u32(n_sections) || n_sections != 3)
        return false;
    bool seen[4] = {};
    for (std::uint32_t i = 0; i < n_sections; ++i) {
        std::uint32_t tag = 0;
        std::string payload;
        if (!r.u32(tag) || !r.str(payload))
            return false;
        if (tag < kSectionMeta || tag > kSectionDevice || seen[tag])
            return false;
        seen[tag] = true;
        ByteReader pr(payload);
        bool ok = false;
        switch (tag) {
          case kSectionMeta:
            ok = readMeta(pr, now, p);
            break;
          case kSectionBox:
            ok = s.box.loadState(pr);
            break;
          case kSectionDevice:
            ok = s.device.loadState(pr);
            break;
        }
        if (!ok || !pr.done())
            return false;
    }
    return r.done();
}

} // namespace

void
captureLivePoint(LivePointCache &cache, const std::string &key,
                 const LivePointState &s)
{
    cache.store(key, encodeLivePoint(s));
}

bool
restoreLivePoint(LivePointState &s, const std::string &value)
{
    // Snapshot the cold state so a bad value rolls back instead of
    // leaving a half-applied restore.
    ByteWriter snap;
    s.box.saveState(snap);
    s.device.saveState(snap);
    std::string rollback = snap.take();

    Time now;
    AccubenchProgress progress;
    if (decodeLivePoint(s, value, now, progress)) {
        s.sim.restoreClock(now);
        s.progress = progress;
        debug("live point: restored unit %s at t=%s",
              s.device.unitId().c_str(), now.toString().c_str());
        return true;
    }
    warn("live point: stored state for unit %s failed to load; "
         "falling back to a cold start", s.device.unitId().c_str());

    ByteReader r(rollback);
    if (!s.box.loadState(r) || !s.device.loadState(r) || !r.done())
        fatal("live point: rollback of freshly saved state failed");
    return false;
}

} // namespace pvar
