/**
 * @file
 * Named-statistics framework, loosely modelled on gem5's stats
 * package (v2).
 *
 * Components own a StatGroup of named statistics; four flavours are
 * supported:
 *
 *  - Counter       monotonic 64-bit event counts
 *  - Histogram     bucketed value distributions (linear or log2)
 *  - Distribution  running min/max/mean/stddev summaries
 *  - Formula       derived ratios evaluated lazily at dump time
 *
 * Stat names are unique within a group across all four flavours
 * (collisions panic), and every dump — text or JSON — iterates in
 * sorted name order so output is deterministic and diffable. Groups
 * register into a hierarchical StatRegistry (telemetry/stat_registry)
 * under dotted component names.
 */

#ifndef HARD_COMMON_STATS_HH
#define HARD_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace hard
{

/** A single named 64-bit counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t v)
    {
        value_ += v;
        return *this;
    }

    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A bucketed histogram of 64-bit samples.
 *
 * Two bucketing schemes:
 *  - Linear: bucket i covers [i*width, (i+1)*width); the last bucket
 *    absorbs everything above.
 *  - Log2: bucket 0 holds the value 0, bucket i >= 1 covers
 *    [2^(i-1), 2^i); the last bucket absorbs everything above (65
 *    buckets cover the full uint64 range exactly).
 */
class Histogram
{
  public:
    enum class Scale
    {
        Linear,
        Log2,
    };

    /** Log2 over the full uint64 range by default. */
    Histogram() : Histogram(Scale::Log2, 1, 65) {}

    /**
     * @param scale Bucketing scheme.
     * @param bucket_width Linear bucket width (ignored for Log2).
     * @param num_buckets Bucket count; out-of-range samples clamp into
     * the last bucket.
     */
    Histogram(Scale scale, std::uint64_t bucket_width, unsigned num_buckets)
        : scale_(scale), width_(bucket_width ? bucket_width : 1),
          buckets_(num_buckets ? num_buckets : 1, 0)
    {
    }

    /** Record @p v (@p count times). */
    void
    sample(std::uint64_t v, std::uint64_t count = 1)
    {
        if (count == 0)
            return;
        buckets_[bucketOf(v)] += count;
        count_ += count;
        sum_ += v * count;
        if (count_ == count || v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    /** @return the bucket index @p v falls into. */
    std::size_t
    bucketOf(std::uint64_t v) const
    {
        std::size_t idx;
        if (scale_ == Scale::Linear) {
            idx = static_cast<std::size_t>(v / width_);
        } else {
            // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i).
            idx = v == 0 ? 0 : floorLog2U64(v) + 1;
        }
        return idx < buckets_.size() ? idx : buckets_.size() - 1;
    }

    Scale scale() const { return scale_; }
    std::uint64_t bucketWidth() const { return width_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    /** @return the smallest sample (0 when empty). */
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }

    void
    reset()
    {
        buckets_.assign(buckets_.size(), 0);
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }

    /** {"scale","buckets","count","sum","min","max"} (sorted keys). */
    Json
    toJson() const
    {
        Json j = Json::object();
        Json b = Json::array();
        for (std::uint64_t v : buckets_)
            b.push(v);
        j.set("buckets", std::move(b));
        j.set("count", count_);
        j.set("max", max_);
        j.set("min", min());
        j.set("scale", scale_ == Scale::Linear ? "linear" : "log2");
        j.set("sum", sum_);
        if (scale_ == Scale::Linear)
            j.set("width", width_);
        return j;
    }

  private:
    static unsigned
    floorLog2U64(std::uint64_t v)
    {
        unsigned l = 0;
        while (v >>= 1)
            ++l;
        return l;
    }

    Scale scale_ = Scale::Log2;
    std::uint64_t width_ = 1;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/**
 * Running summary of 64-bit samples: count, sum, min, max, mean and
 * (population) standard deviation. Cheaper than a Histogram when only
 * the moments matter.
 */
class Distribution
{
  public:
    void
    sample(std::uint64_t v, std::uint64_t count = 1)
    {
        if (count == 0)
            return;
        const bool first = count_ == 0;
        count_ += count;
        sum_ += v * count;
        sumSq_ += static_cast<double>(v) * static_cast<double>(v) *
            static_cast<double>(count);
        if (first || v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                static_cast<double>(count_);
    }

    double
    stddev() const
    {
        if (count_ == 0)
            return 0.0;
        const double m = mean();
        const double var = sumSq_ / static_cast<double>(count_) - m * m;
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0;
        sumSq_ = 0.0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }

    Json
    toJson() const
    {
        Json j = Json::object();
        j.set("count", count_);
        j.set("max", max_);
        j.set("mean", mean());
        j.set("min", min());
        j.set("stddev", stddev());
        j.set("sum", sum_);
        return j;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    double sumSq_ = 0.0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/**
 * A derived statistic evaluated lazily at dump time (e.g. a miss rate
 * or bytes/transaction ratio over live counters).
 */
class Formula
{
  public:
    Formula() = default;
    explicit Formula(std::function<double()> fn) : fn_(std::move(fn)) {}

    double value() const { return fn_ ? fn_() : 0.0; }

    /** @return num/den * scale, or 0.0 when the denominator is 0. */
    static double
    ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0)
    {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                static_cast<double>(den) * scale;
    }

  private:
    std::function<double()> fn_;
};

/**
 * A group of named statistics belonging to one simulated component.
 * Stats are created lazily on first reference and live for the
 * lifetime of the group; a name is unique across all stat flavours
 * within the group (collisions panic).
 */
class StatGroup
{
  public:
    /** @param name Dotted prefix for all stats in this group. */
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Fetch (creating if needed) the counter called @p stat. */
    Counter &
    counter(const std::string &stat)
    {
        if (counters_.find(stat) == counters_.end())
            checkFresh(stat, "counter");
        return counters_[stat];
    }

    /**
     * Fetch (creating if needed) the histogram called @p stat. The
     * shape arguments apply on first creation only.
     */
    Histogram &
    histogram(const std::string &stat,
              Histogram::Scale scale = Histogram::Scale::Log2,
              std::uint64_t bucket_width = 1, unsigned num_buckets = 65)
    {
        auto it = histograms_.find(stat);
        if (it != histograms_.end())
            return it->second;
        checkFresh(stat, "histogram");
        return histograms_
            .emplace(stat, Histogram(scale, bucket_width, num_buckets))
            .first->second;
    }

    /** Fetch (creating if needed) the distribution called @p stat. */
    Distribution &
    distribution(const std::string &stat)
    {
        if (distributions_.find(stat) == distributions_.end())
            checkFresh(stat, "distribution");
        return distributions_[stat];
    }

    /** Register the derived statistic @p stat (collisions panic). */
    void
    formula(const std::string &stat, std::function<double()> fn)
    {
        checkFresh(stat, "formula");
        formulas_.emplace(stat, Formula(std::move(fn)));
    }

    /** Read-only counter lookup; returns 0 for unknown counters. */
    std::uint64_t
    value(const std::string &stat) const
    {
        auto it = counters_.find(stat);
        return it == counters_.end() ? 0 : it->second.value();
    }

    /** @return true if any stat flavour named @p stat exists. */
    bool
    has(const std::string &stat) const
    {
        return counters_.count(stat) != 0 ||
            histograms_.count(stat) != 0 ||
            distributions_.count(stat) != 0 ||
            formulas_.count(stat) != 0;
    }

    /**
     * Zero every counter, histogram and distribution in the group
     * (formulas recompute from the zeroed inputs). Used between batch
     * units sharing a process so per-run stats never leak across runs.
     */
    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second.reset();
        for (auto &kv : histograms_)
            kv.second.reset();
        for (auto &kv : distributions_)
            kv.second.reset();
    }

    /** Back-compat alias for reset(). */
    void resetAll() { reset(); }

    const std::string &name() const { return name_; }

    /**
     * Dump "group.stat value" counter lines, sorted by stat name
     * (std::map iteration order).
     */
    std::vector<std::pair<std::string, std::uint64_t>>
    dump() const
    {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        out.reserve(counters_.size());
        for (const auto &kv : counters_)
            out.emplace_back(name_ + "." + kv.first, kv.second.value());
        return out;
    }

    /**
     * Full JSON form: {"counters":{...},"histograms":{...},
     * "distributions":{...},"formulas":{...}}, each section sorted by
     * stat name and omitted when empty.
     */
    Json
    toJson() const
    {
        Json j = Json::object();
        if (!counters_.empty()) {
            Json c = Json::object();
            for (const auto &kv : counters_)
                c.set(kv.first, kv.second.value());
            j.set("counters", std::move(c));
        }
        if (!distributions_.empty()) {
            Json d = Json::object();
            for (const auto &kv : distributions_)
                d.set(kv.first, kv.second.toJson());
            j.set("distributions", std::move(d));
        }
        if (!formulas_.empty()) {
            Json f = Json::object();
            for (const auto &kv : formulas_)
                f.set(kv.first, kv.second.value());
            j.set("formulas", std::move(f));
        }
        if (!histograms_.empty()) {
            Json h = Json::object();
            for (const auto &kv : histograms_)
                h.set(kv.first, kv.second.toJson());
            j.set("histograms", std::move(h));
        }
        return j;
    }

  private:
    /** Panic if @p stat already exists under a different flavour. */
    void
    checkFresh(const std::string &stat, const char *kind) const
    {
        hard_panic_if(has(stat),
                      "stats: %s '%s.%s' collides with an existing stat",
                      kind, name_.c_str(), stat.c_str());
    }

    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, Distribution> distributions_;
    std::map<std::string, Formula> formulas_;
};

/**
 * A named Counter in a StatGroup, for hot paths: the name is looked up
 * on the handle's first increment and the Counter is reached by
 * pointer after that. An untouched handle creates nothing, so a group
 * dumps exactly the counters that were ever incremented, as with
 * `++group.counter(name)`. The pointer stays valid because map nodes
 * never move and StatGroup::reset() zeroes without erasing; the group
 * itself must not move, so owners of handles are not copyable.
 */
class CounterHandle
{
  public:
    CounterHandle(StatGroup &group, std::string stat)
        : group_(&group), stat_(std::move(stat))
    {
    }

    CounterHandle(const CounterHandle &) = delete;
    CounterHandle &operator=(const CounterHandle &) = delete;

    CounterHandle &
    operator++()
    {
        ++get();
        return *this;
    }

    CounterHandle &
    operator+=(std::uint64_t v)
    {
        get() += v;
        return *this;
    }

  private:
    Counter &
    get()
    {
        if (counter_ == nullptr) [[unlikely]]
            counter_ = &group_->counter(stat_);
        return *counter_;
    }

    Counter *counter_ = nullptr;
    StatGroup *group_ = nullptr;
    std::string stat_;
};

} // namespace hard

#endif // HARD_COMMON_STATS_HH
