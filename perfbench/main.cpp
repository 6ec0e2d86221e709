/**
 * @file
 * turnbench: the turn-model simulator's benchmark program.
 *
 *   turnbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH]
 *
 * With --trace 0 it runs whole rounds of the workload until the next
 * round would end past S seconds (at least one), and reports the
 * end-to-end metrics as medians over the rounds. With --trace 1 it
 * runs one untraced round, one traced round and the per-layer
 * probes, writes the spans and counts to PATH, and reports the
 * per-layer metrics. Either way the last line of standard output is
 * one JSON object: correct, attempted, failed and metrics.
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "turnbench: " << error << "\n"
              << "usage: turnbench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--trace-out PATH]\n"
              << "workloads:";
    for (const std::string &name : workloadNames())
        std::cerr << ' ' << name;
    std::cerr << '\n';
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && opt.seconds > 0.0;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
            have_trace = true;
        } else if (flag == "--trace-out") {
            opt.trace_out = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!findWorkload(opt.workload))
        usage("unknown workload '" + opt.workload + "'");
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    return opt;
}

void
printResult(const Tally &tally, const std::vector<LayerMetric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (tally.correct() ? "true" : "false")
       << ", \"attempted\": " << tally.attempted()
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << jsonQuote(metrics[i].name)
           << ": {\"value\": ";
        turnmodel::writeJsonNumber(os, metrics[i].value);
        os << ", \"unit\": " << jsonQuote(metrics[i].unit) << '}';
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
#ifndef NDEBUG
    const bool release = false;
#else
    const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
    if (!release) {
        std::cerr << "turnbench: refusing to time a " << PERFBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }
    const Workload &workload = *findWorkload(opt.workload);

    Tally tally;
    std::vector<Round> rounds;
    std::vector<LayerMetric> metrics;
    double overhead = 0.0;
    if (!opt.trace) {
        const double start = hostSeconds();
        std::vector<double> round_s;
        do {
            const double t0 = hostSeconds();
            rounds.push_back(workload.round(opt, tally));
            round_s.push_back(hostSeconds() - t0);
            std::cerr << "round " << rounds.size() << ": setup_s "
                      << rounds.back().setup_s << " wall_s "
                      << rounds.back().wall_s << '\n';
        } while (hostSeconds() - start + median(round_s) <= opt.seconds);

        std::vector<double> setup;
        std::vector<double> wall;
        std::vector<double> rate;
        for (const Round &r : rounds) {
            setup.push_back(r.setup_s);
            wall.push_back(r.wall_s);
            rate.push_back(static_cast<double>(r.flit_moves) / r.wall_s);
        }
        metrics = {
            {"setup_s", median(setup), "s"},
            {"wall_s", median(wall), "s"},
            {"flit_moves_per_s", median(rate), "flit_moves/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        // Overhead is compared on wall time: the first round's set-up
        // also pays the fresh process's first page touches.
        rounds.push_back(workload.round(opt, tally));
        const double untraced = rounds[0].wall_s;
        tracer().enable(true);
        {
            Scope span("bench.round");
            rounds.push_back(workload.round(opt, tally));
        }
        const double traced = rounds[1].wall_s;
        overhead = traced / untraced - 1.0;
        metrics = probeLayers(opt, tally);
        tracer().enable(false);
        if (!opt.trace_out.empty())
            tracer().writeJson(opt.trace_out, opt.workload, untraced, traced);
        std::cout << tracer().summaryText();
        std::cout << "tracing overhead: " << std::fixed
                  << std::setprecision(2) << overhead * 100.0
                  << "% (traced round wall " << traced << " s, untraced "
                  << untraced << " s)\n";
        std::cout.unsetf(std::ios::floatfield);
    }

    bool identical = true;
    for (const Round &r : rounds)
        identical &= r.digest == rounds[0].digest;
    std::cout << "digest " << opt.workload << " seed=" << opt.seed
              << " fnv1a=" << std::hex << std::setw(16) << std::setfill('0')
              << rounds[0].digest << std::dec << std::setfill(' ') << ' '
              << rounds[0].digest_text << '\n';
    std::cout << "info {\"workload\": " << jsonQuote(opt.workload)
              << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
              << ", \"rounds\": " << rounds.size()
              << ", \"rounds_identical\": " << (identical ? "true" : "false")
              << ", \"host_cpus\": " << std::thread::hardware_concurrency()
              << ", \"threads\": " << (opt.trace ? 2u : workload.threads)
              << ", \"build_type\": " << jsonQuote(PERFBENCH_BUILD_TYPE)
              << ", \"operations\": " << tally.kindsJson()
              << ", \"failures\": " << tally.failuresJson() << "}\n";
    printResult(tally, metrics);
    return 0;
}
