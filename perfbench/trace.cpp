/**
 * @file
 * Span tracer, operation tally and small host helpers.
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

/** A field of /proc/self/status in kB, as MB (0 when absent). */
double
statusMb(const char *field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(status, line)) {
        if (line.rfind(key, 0) == 0)
            return std::stod(line.substr(key.size())) / 1024.0;
    }
    return 0.0;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

std::string
jsonQuote(const std::string &text)
{
    return '"' + turnmodel::jsonEscape(text) + '"';
}

double
currentRssMb()
{
    return statusMb("VmRSS");
}

double
peakRssMb()
{
    return statusMb("VmHWM");
}

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ULL;
    }
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// ---------------------------------------------------------------------
// Tally

void
Tally::count(const std::string &kind, bool ok, const std::string &what)
{
    ++attempted_;
    ++kinds_[kind].first;
    if (ok)
        return;
    ++failed_;
    ++kinds_[kind].second;
    if (failures_.size() < 8)
        failures_.push_back(what);
}

void
Tally::op(const std::string &kind, bool ok, const std::string &what)
{
    count(kind, ok, what);
    correct_ &= ok;
}

void
Tally::check(bool ok, const std::string &what)
{
    count("checks", ok, what);
    correct_ &= ok;
}

void
Tally::knownFault(bool ok, const std::string &what)
{
    count("checks", ok, what);
}

std::string
Tally::kindsJson() const
{
    std::ostringstream os;
    os << '{';
    const char *sep = "";
    for (const auto &[kind, counts] : kinds_) {
        os << sep << jsonQuote(kind) << ": [" << counts.first
           << ", " << counts.second << ']';
        sep = ", ";
    }
    os << '}';
    return os.str();
}

std::string
Tally::failuresJson() const
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < failures_.size(); ++i)
        os << (i ? ", " : "") << jsonQuote(failures_[i]);
    os << ']';
    return os.str();
}

// ---------------------------------------------------------------------
// Tracer

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

int
Tracer::open(const std::string &name)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = hostSeconds();
    spans_.push_back(std::move(span));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = hostSeconds();
    stack_.pop_back();
}

void
Tracer::add(const std::string &counter, double value)
{
    counts_[counter] += value;
}

void
Tracer::peak(const std::string &counter, double value)
{
    double &slot = counts_[counter];
    slot = std::max(slot, value);
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.end - s.start);
    }
    return out;
}

namespace {

struct Aggregate
{
    std::uint64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
};

/** Totals and self times by span name and by layer. */
void
aggregate(const std::vector<Tracer::Span> &spans,
          std::map<std::string, Aggregate> &by_name,
          std::map<std::string, Aggregate> &by_layer)
{
    std::vector<double> child_time(spans.size(), 0.0);
    for (const Tracer::Span &s : spans) {
        if (s.parent >= 0)
            child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double total = spans[i].end - spans[i].start;
        const double self = total - child_time[i];
        Aggregate &n = by_name[spans[i].name];
        ++n.calls;
        n.total += total;
        n.self += self;
        // A layer's total counts only its outermost spans, so that
        // nested spans of one layer are not summed twice.
        const std::string layer = layerOf(spans[i].name);
        Aggregate &l = by_layer[layer];
        ++l.calls;
        l.self += self;
        const int p = spans[i].parent;
        if (p < 0 || layerOf(spans[static_cast<std::size_t>(p)].name) != layer)
            l.total += total;
    }
}

} // namespace

std::string
Tracer::summaryText() const
{
    std::map<std::string, Aggregate> by_name;
    std::map<std::string, Aggregate> by_layer;
    aggregate(spans_, by_name, by_layer);
    std::ostringstream os;
    os << std::fixed << std::setprecision(4);
    os << "layer self times (s):\n";
    for (const auto &[layer, a] : by_layer) {
        os << "  " << std::left << std::setw(10) << layer << std::right
           << " spans " << std::setw(6) << a.calls << "  total "
           << std::setw(10) << a.total << "  self " << std::setw(10)
           << a.self << '\n';
    }
    os << "span self times (s):\n";
    for (const auto &[name, a] : by_name) {
        os << "  " << std::left << std::setw(28) << name << std::right
           << " calls " << std::setw(6) << a.calls << "  total "
           << std::setw(10) << a.total << "  self " << std::setw(10)
           << a.self << '\n';
    }
    return os.str();
}

void
Tracer::writeJson(const std::string &path, const std::string &workload,
                  double untraced_s, double traced_s) const
{
    std::map<std::string, Aggregate> by_name;
    std::map<std::string, Aggregate> by_layer;
    aggregate(spans_, by_name, by_layer);
    std::ofstream os(path);
    os << std::setprecision(17);
    os << "{\"schema\": \"turnmodel-perfbench-trace-v1\", \"workload\": "
       << jsonQuote(workload)
       << ", \"untraced_wall_s\": " << untraced_s
       << ", \"traced_wall_s\": " << traced_s
       << ", \"tracing_overhead\": " << (traced_s / untraced_s - 1.0)
       << ",\n \"counts\": {";
    const char *sep = "";
    for (const auto &[name, value] : counts_) {
        os << sep << jsonQuote(name) << ": " << value;
        sep = ", ";
    }
    os << "},\n \"layers\": {";
    sep = "";
    for (const auto &[layer, a] : by_layer) {
        os << sep << jsonQuote(layer) << ": {\"spans\": "
           << a.calls << ", \"total_s\": " << a.total
           << ", \"self_s\": " << a.self << '}';
        sep = ", ";
    }
    os << "},\n \"spans\": [";
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
           << ", \"name\": " << jsonQuote(s.name)
           << ", \"parent\": " << s.parent
           << ", \"start_s\": " << s.start - origin
           << ", \"end_s\": " << s.end - origin << '}';
    }
    os << "\n]}\n";
}

} // namespace perfbench
