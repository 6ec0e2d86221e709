/**
 * @file
 * Shared declarations of the turn-model benchmark: command-line
 * options, operation accounting, the span tracer, and the entry
 * points of the three workloads and of the per-layer probes.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans and counts. */
    std::string trace_out;
};

/** Host time since an arbitrary epoch, in seconds. */
inline double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Resident-set figures of this process, in MB (from /proc). */
double currentRssMb();
double peakRssMb();

/**
 * Operations attempted and failed, by kind (sweep points, cycle
 * blocks, simulator runs, checks). A check that does not hold is a
 * failed operation; unless it is the one known program fault, it
 * also makes the run incorrect.
 */
class Tally
{
  public:
    /** A simulation operation; @p ok false when it failed. */
    void op(const std::string &kind, bool ok, const std::string &what);

    /** A correctness check. */
    void check(bool ok, const std::string &what);

    /**
     * A check that fails on every input because of a known program
     * fault: counted as a failed operation, while the run stays
     * correct about the operations that did not fail.
     */
    void knownFault(bool ok, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return correct_; }

    /** {"kind": [attempted, failed], ...} */
    std::string kindsJson() const;
    /** The first few failure messages, as a JSON array. */
    std::string failuresJson() const;

  private:
    void count(const std::string &kind, bool ok, const std::string &what);

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> kinds_;
    std::vector<std::string> failures_;
};

/**
 * In-memory span recorder for the traced run. Spans are opened and
 * closed around calls into the simulator's public functions from
 * the benchmark's own code; nothing is recorded while disabled, so
 * the end-to-end runs pay one branch per span site.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;   ///< Host seconds.
        double end = 0.0;
        int parent = -1;      ///< Index into spans(), -1 = root.
    };

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    int open(const std::string &name);
    void close(int id);
    /** Add @p value to a summed counter. */
    void add(const std::string &counter, double value);
    /** Raise a high-water-mark counter to at least @p value. */
    void peak(const std::string &counter, double value);

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::string, double> &counts() const
    {
        return counts_;
    }

    /** Summed duration of every span named @p name, seconds. */
    double total(const std::string &name) const;
    /** Durations of every span named @p name, seconds. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Per-name and per-layer (name prefix before the first '.')
     * totals and self times: a span's duration minus the time its
     * child spans cover.
     */
    std::string summaryText() const;
    /** Spans, counts and the summary as one JSON document. */
    void writeJson(const std::string &path, const std::string &workload,
                   double untraced_s, double traced_s) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> counts_;
};

/** The process-wide tracer. */
Tracer &tracer();

/** RAII span: records only while the tracer is enabled. */
class Scope
{
  public:
    explicit Scope(const std::string &name)
        : id_(tracer().enabled() ? tracer().open(name) : -1)
    {
    }
    ~Scope()
    {
        if (id_ >= 0)
            tracer().close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_;
};

/** One measured round of a workload. */
struct Round
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    std::uint64_t flit_moves = 0;
    /** FNV-1a digest of every simulated statistic of the round. */
    std::uint64_t digest = 0;
    /** Readable digest fields, "key=value ..." */
    std::string digest_text;
};

/** A workload: set-up repeated and timed, then whole rounds. */
struct Workload
{
    const char *name;
    /** Run one round. Checks go to @p tally. */
    Round (*round)(const Options &opt, Tally &tally);
    /** Threads the round steps on (the caller's included). */
    unsigned threads;
};

/** The workloads, by name; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);
std::vector<std::string> workloadNames();

/** A per-layer metric: name, value, unit. */
struct LayerMetric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Probe every layer on @p workload's configuration and return the
 * per-layer metrics, reading the traced round's spans and counts
 * from tracer() where the round itself exercised the layer.
 */
std::vector<LayerMetric> probeLayers(const Options &opt, Tally &tally);

/** FNV-1a 64-bit accumulation over raw bytes. */
std::uint64_t fnv1a(std::uint64_t h, const void *data, std::size_t n);

template <typename T>
std::uint64_t
fnv1aValue(std::uint64_t h, const T &value)
{
    return fnv1a(h, &value, sizeof value);
}

/** @p text as a JSON string literal. */
std::string jsonQuote(const std::string &text);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
