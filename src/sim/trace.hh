/**
 * @file
 * Time-series recording.
 *
 * Every figure in the paper is a time series or a statistic computed
 * from one. Trace is the single recording primitive: named channels of
 * (time, value) samples with CSV export and simple reductions.
 */

#ifndef PVAR_SIM_TRACE_HH
#define PVAR_SIM_TRACE_HH

#include <map>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace pvar
{

/** One (time, value) observation. */
struct Sample
{
    Time when;
    double value;
};

/** A named sequence of observations. */
class TraceChannel
{
  public:
    explicit TraceChannel(std::string channel_name = "");

    const std::string &name() const { return _name; }

    void record(Time when, double value);

    const std::vector<Sample> &samples() const { return _samples; }
    bool empty() const { return _samples.empty(); }
    std::size_t size() const { return _samples.size(); }

    /** Last recorded value; fatal on an empty channel. */
    double last() const;

    /** Arithmetic mean of the values. */
    double mean() const;

    /** Minimum / maximum of the values. */
    double min() const;
    double max() const;

    /**
     * Time-weighted mean over the recorded span (each sample holds
     * until the next); equals mean() for uniformly spaced samples.
     */
    double timeWeightedMean() const;

    /**
     * Total time spent at values >= threshold (sample-and-hold).
     * This is the "time at temperature" metric of paper §IV-B.
     */
    Time timeAtOrAbove(double threshold) const;

    /** Keep only samples with when >= start (used to trim warmup). */
    TraceChannel since(Time start) const;

    /** Values only, discarding timestamps. */
    std::vector<double> values() const;

  private:
    std::string _name;
    std::vector<Sample> _samples;
};

/**
 * A bundle of named channels recorded during one run.
 */
class Trace
{
  public:
    /** Get or create a channel. */
    TraceChannel &channel(const std::string &channel_name);

    /** Lookup; fatal if missing (typo guard). */
    const TraceChannel &channel(const std::string &channel_name) const;

    bool hasChannel(const std::string &channel_name) const;

    /** Record into a channel, creating it on first use. */
    void record(const std::string &channel_name, Time when, double value);

    std::vector<std::string> channelNames() const;

    /**
     * Export all channels as CSV: one row per sample,
     * columns "channel,time_s,value".
     */
    std::string toCsv() const;

    /** Write toCsv() to a file; fatal on I/O error. */
    void writeCsv(const std::string &path) const;

    void clear();

  private:
    std::map<std::string, TraceChannel> _channels;
};

} // namespace pvar

#endif // PVAR_SIM_TRACE_HH
