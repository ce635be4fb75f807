// PRESS benchmark driver.
//
//   pressbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans-out <path>]
//
// Runs one workload (study_service, study_mobile, multiuser_search,
// massive_search) against the library's public API. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it runs the workload
// untraced and traced on two identical set-ups, checks the outputs match
// bit for bit, and prints the layer table and the per-layer metrics.
// See pressbench/README.md for what each metric means. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// A wrong output exits 1 without that line; bad arguments exit 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "bench.hpp"
#include "control/batch.hpp"
#include "util/kernels.hpp"

namespace {

using pressbench::Options;
using pressbench::Report;

const std::vector<std::string> kEndToEnd = {
    "setup_s",       "optimize_p50_us", "optimize_p99_us",
    "max_rps_under_slo", "search_ms_p50", "search_ms_p90",
    "quality_gap_db", "peak_rss_mib"};

const std::vector<std::string> kPerLayer = {
    "service.submit_us", "service.cycle_self_us", "service.take_us",
    "message.encode_us", "message.decode_us", "service.queue_wait_p50_us",
    "service.queue_wait_p99_us", "gen.late_p99_us", "service.admitted",
    "service.served", "service.rejected", "service.expired",
    "service.queue_depth_max", "engine.optimize_us", "system.self_us",
    "search.policy_self_us", "search.evals", "search.batches",
    "search.cands_per_batch", "batch.eval_us", "batch.eval_us_per_cand",
    "batch.dispatch_us", "batch.construct_us", "batch.speedup_2t",
    "engine.speedup_2cpu",
    "link_cache.gather_us", "link_cache.base_us", "link_cache.delta_us",
    "link_cache.rebuild_us", "link_cache.hits", "link_cache.misses",
    "link_cache.hit_ratio", "multilink_cache.group_gather_us",
    "multilink_cache.warm_ms", "multilink_cache.rebuilds",
    "multilink_cache.shared_basis_hits", "sounding.us_per_link",
    "em.trace_us", "host.calib_us", "trace.overhead_pct",
    "trace.unattributed_pct", "failed_frac"};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "pressbench: %s\nusage: pressbench --workload "
                 "<study_service|study_mobile|multiuser_search|"
                 "massive_search> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\n",
                 why.c_str());
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') usage("bad --seed");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 120.0)
                usage("bad --seconds");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("bad --trace");
            o.trace = value == "1";
        } else if (flag == "--spans-out") {
            o.spans_out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    static const std::set<std::string> known = {
        "study_service", "study_mobile", "multiuser_search", "massive_search"};
    if (known.count(o.workload) == 0) usage("unknown workload");
    return o;
}

}  // namespace

int main(int argc, char** argv) {
    const Options options = parse(argc, argv);
    Report report;
    try {
        if (options.workload == "study_service")
            pressbench::run_study(options, false, report);
        else if (options.workload == "study_mobile")
            pressbench::run_study(options, true, report);
        else
            pressbench::run_search(options, report);
    } catch (const pressbench::CorrectnessError& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "pressbench: INCORRECT: %s\n", e.what.c_str());
        return 1;
    }

    const std::vector<std::string>& expected =
        options.trace ? kPerLayer : kEndToEnd;
    std::set<std::string> seen;
    for (const Report::Entry& e : report.entries) {
        if (!std::isfinite(e.value)) {
            std::fprintf(stderr, "pressbench: metric %s is not finite\n",
                         e.name.c_str());
            return 1;
        }
        seen.insert(e.name);
    }
    for (const std::string& name : expected) {
        if (seen.count(name) == 0) {
            std::fprintf(stderr, "pressbench: metric %s missing\n",
                         name.c_str());
            return 1;
        }
    }

    std::printf("workload %s seed %llu seconds %g trace %d kernel_dispatch %s "
                "hardware_threads %zu\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0,
                press::util::kernels::dispatch_name(
                    press::util::kernels::active()),
                press::control::BatchEvaluator::resolve_threads(0));
    for (const std::string& note : report.notes)
        std::printf("%s\n", note.c_str());
    for (const Report::Entry& e : report.entries)
        std::printf("  %-34s %16.6f %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());

    std::string json = "{\"correct\": true, \"attempted\": " +
                       std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : expected) {
        for (const Report::Entry& e : report.entries) {
            if (e.name != name) continue;
            char value[64];
            std::snprintf(value, sizeof value, "%.17g", e.value);
            json += std::string(first ? "" : ", ") + "\"" + name +
                    "\": {\"value\": " + value + ", \"unit\": \"" + e.unit +
                    "\"}";
            first = false;
            break;
        }
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
