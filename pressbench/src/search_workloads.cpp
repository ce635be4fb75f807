// multiuser_search and massive_search: budgeted optimize calls made
// directly on core::System, with no service in front, offered open loop
// like the service workloads' requests: a controller that re-optimizes
// the panel on a fixed cadence.
//
// multiuser_search: 32 links from 4 APs over one shared 16-element
// 4-state panel; optimize_multilink, max-min objective, greedy search.
// massive_search: a 1,024-element two-state panel; optimize_fast,
// min-SNR objective, majority-vote search with 32-probe rounds.
// Both use 2 evaluation threads and a fixed evaluation budget.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "control/objective.hpp"
#include "control/plane.hpp"
#include "core/scenarios.hpp"
#include "workloads.hpp"

namespace pressbench {

namespace core = press::core;
namespace control = press::control;
using press::surface::Config;

namespace {

constexpr std::size_t kThreads = 2;
/// Offered calls per second at which optimize_p50_us / optimize_p99_us
/// and search_ms_* are taken: about 30% of one CPU at ~25 ms per call.
constexpr double kNominalRate = 12.0;
/// Latency limit on optimize_p99_us for max_rps_under_slo: one
/// coherence window (80 ms), so a configuration lands before the channel
/// it was found for has moved on. A call takes about a third of it.
constexpr double kLatencyLimitUs = 80000.0;
/// Calls whose applied configuration is scored for quality_gap_db; every
/// run makes at least this many, so the figure is fixed per seed.
constexpr std::size_t kQualityCalls = 256;

struct Spec {
    /// Builds the scene and warms the bases the calls read.
    std::function<std::unique_ptr<core::System>()> build;
    std::unique_ptr<control::Objective> objective;
    std::function<std::unique_ptr<control::Searcher>()> searcher;
    bool multilink = false;
    std::size_t budget_evals = 0;    ///< evaluation budget per call
    std::size_t batch_size = 0;      ///< typical batch, for the probes
    bool heavy = false;
    std::size_t reference_evals = 0;  ///< noise-free reference search
    double recorded_reference = 0.0;
};

struct Output {
    Config applied;
    std::uint64_t score_bits = 0;  ///< best_score_remeasured, bitwise
    std::size_t evaluations = 0;
    bool operator==(const Output&) const = default;
};

struct Pass {
    std::vector<double> call_us;
    std::vector<Output> outputs;
    std::uint64_t failed = 0;
};

double budget_s(const core::System& system, std::size_t array_id,
                std::size_t evals, std::size_t links) {
    control::SetConfig probe;
    probe.config.assign(system.medium().array(array_id).size(), 0);
    return static_cast<double>(evals) *
           control::ControlPlaneModel::fast().config_trial_time_s(
               probe, links, system.medium().ofdm().num_used());
}

/// Makes back-to-back optimize calls on one scene with its own rng
/// stream, recording each call's time and outputs.
class Caller {
public:
    Caller(const Spec& spec, core::System& system, std::uint64_t seed,
           Tracer& tracer, SearchCounts& counts)
        : spec_(spec),
          system_(system),
          tracer_(tracer),
          inner_(spec.searcher()),
          timed_(*inner_, tracer, counts),
          budget_(budget_s(system, 0, spec.budget_evals,
                           spec.multilink ? system.num_links() : 1)),
          rng_(seed * 0x9E3779B97F4A7C15ull + 11) {}

    void call() {
        const control::Searcher& searcher =
            tracer_.enabled() ? static_cast<const control::Searcher&>(timed_)
                              : *inner_;
        tracer_.set_request(static_cast<std::uint32_t>(pass.outputs.size()));
        const Clock::time_point c0 = Clock::now();
        control::OptimizationOutcome outcome;
        {
            Span span(&tracer_, "engine.optimize");
            outcome = spec_.multilink
                          ? system_.optimize_multilink(0, *spec_.objective,
                                                       searcher, plane_,
                                                       budget_, rng_, kThreads)
                          : system_.optimize_fast(0, *spec_.objective,
                                                  searcher, plane_, budget_,
                                                  rng_, kThreads);
        }
        pass.call_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - c0)
                .count());
        Output out;
        out.applied = system_.medium().array(0).current_config();
        std::memcpy(&out.score_bits, &outcome.search.best_score_remeasured,
                    sizeof out.score_bits);
        out.evaluations = outcome.search.evaluations;
        if (!outcome.final_apply_ok || outcome.search.best_config.empty() ||
            out.applied.empty())
            ++pass.failed;
        else if (outcome.search.evaluations == 0)
            fail("optimize call reports zero evaluations");
        pass.outputs.push_back(std::move(out));
    }

    Pass pass;

private:
    const Spec& spec_;
    core::System& system_;
    Tracer& tracer_;
    std::unique_ptr<control::Searcher> inner_;
    TimedSearcher timed_;
    control::ControlPlaneModel plane_ = control::ControlPlaneModel::fast();
    double budget_;
    press::util::Rng rng_;
};

double true_score(const Spec& spec, core::System& system,
                  const Config& config) {
    system.apply(0, config);
    return spec.objective->score(system.observe_true());
}

/// Best noise-free score from a long serial greedy search (untimed).
double reference_score(const Spec& spec, core::System& system) {
    const Config saved = system.medium().array(0).current_config();
    const press::surface::ConfigSpace space =
        system.medium().array(0).config_space();
    press::util::Rng rng(0x5EEDull);
    const control::SearchResult result =
        control::GreedyCoordinateDescent().search(
            space,
            [&](const Config& c) { return true_score(spec, system, c); },
            spec.reference_evals, rng);
    system.apply(0, saved);
    return result.best_score;
}

Spec make_spec(const std::string& workload) {
    Spec spec;
    if (workload == "multiuser_search") {
        spec.build = [] {
            auto system = std::make_unique<core::System>(
                core::make_multi_link_scenario(302).system);
            system->warm_multilink();
            return system;
        };
        spec.objective = control::make_max_min_objective(32);
        spec.searcher = [] {
            return std::make_unique<control::GreedyCoordinateDescent>();
        };
        spec.multilink = true;
        spec.budget_evals = 16;
        spec.batch_size = 3;
        spec.reference_evals = 2048;
        spec.recorded_reference = 30.393135672;
    } else {
        spec.build = [] {
            auto system = std::make_unique<core::System>(
                core::make_massive_scenario(1024, 7001).system);
            (void)system->channel_response(0);
            return system;
        };
        spec.objective = std::make_unique<control::MinSnrObjective>(0);
        spec.searcher = [] {
            return std::make_unique<control::MajorityVoteSearcher>(32);
        };
        spec.budget_evals = 132;  // 4 rounds of 32 probes + 1 consensus
        spec.batch_size = 32;
        spec.heavy = true;
        spec.reference_evals = 4096;
        spec.recorded_reference = 59.933622125;
    }
    return spec;
}

}  // namespace

void run_search(const Options& options, Report& report) {
    const double calib_start = host_calibration_us();
    const Spec spec = make_spec(options.workload);
    char line[256];

    if (!options.trace) {
        const PinCpus pin(1);
        std::vector<double> setups;
        std::unique_ptr<core::System> system;
        double total = 0.0;
        while (setups.size() < 5 || (total < 0.2 && setups.size() < 200)) {
            system.reset();
            const Clock::time_point t0 = Clock::now();
            system = spec.build();
            setups.push_back(seconds_since(t0));
            total += setups.back();
        }
        Tracer off(false);
        SearchCounts counts;
        Caller caller(spec, *system, options.seed, off, counts);
        // Open loop: the nominal windows (latency and call time) with the
        // rate staircase between them.
        std::vector<double> latency_us;  ///< due -> call returned
        std::vector<double> search_us;   ///< call time
        std::vector<double> window_p99_us;
        press::util::Rng schedule_rng(options.seed * 0x2545F4914F6CDD1Dull +
                                      3);
        LoadShape shape;
        shape.nominal_rate = kNominalRate;
        shape.limit_us = kLatencyLimitUs;
        shape.nominal_seconds = options.seconds * 0.6;
        shape.staircase_seconds = options.seconds * 0.4;
        const double max_rps = run_load(shape, [&](double rate,
                                                   double seconds,
                                                   bool nominal) {
            const std::vector<double> offsets =
                schedule(rate, seconds, schedule_rng);
            const std::uint64_t failed_before = caller.pass.failed;
            std::vector<double> latency;
            double late_end_us = 0.0;
            const Clock::time_point start =
                Clock::now() + std::chrono::milliseconds(20);
            for (double offset : offsets) {
                const Clock::time_point due =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(offset));
                wait_until(due);
                late_end_us = std::chrono::duration<double, std::micro>(
                                  Clock::now() - due)
                                  .count();
                caller.call();
                latency.push_back(std::chrono::duration<double, std::micro>(
                                      Clock::now() - due)
                                      .count());
            }
            if (nominal) {
                window_p99_us.push_back(quantile(latency, 0.99));
                latency_us.insert(latency_us.end(), latency.begin(),
                                  latency.end());
                search_us.insert(search_us.end(),
                                 caller.pass.call_us.end() -
                                     static_cast<std::ptrdiff_t>(
                                         offsets.size()),
                                 caller.pass.call_us.end());
            } else {
                std::snprintf(line, sizeof line,
                              "step %6.1f calls/s: n=%zu p50=%.0f us "
                              "p99=%.0f us late_end=%.0f us",
                              rate, latency.size(), quantile(latency, 0.5),
                              quantile(latency, 0.99), late_end_us);
                report.note(line);
            }
            return StepSummary{quantile(latency, 0.99), late_end_us,
                               caller.pass.failed - failed_before};
        });
        while (caller.pass.outputs.size() < kQualityCalls) caller.call();
        const Pass& pass = caller.pass;
        const double reference = reference_score(spec, *system);
        std::snprintf(line, sizeof line,
                      "reference: noise-free greedy best %.9f dB "
                      "(recorded %.9f)",
                      reference, spec.recorded_reference);
        report.note(line);
        if (std::abs(reference - spec.recorded_reference) > 1e-6)
            fail(std::string("reference does not reproduce: ") + line);
        std::vector<double> gaps;
        for (std::size_t i = 0; i < kQualityCalls; ++i)
            gaps.push_back(reference -
                           true_score(spec, *system, pass.outputs[i].applied));
        std::snprintf(line, sizeof line,
                      "%zu calls; nominal %.0f calls/s: n=%zu, pooled p99 "
                      "%.0f us with %zu samples beyond, call time p90 %.0f "
                      "us with %zu beyond",
                      pass.call_us.size(), kNominalRate, latency_us.size(),
                      quantile(latency_us, 0.99), beyond(latency_us, 0.99),
                      quantile(search_us, 0.9), beyond(search_us, 0.9));
        report.note(line);
        std::string windows = "nominal window p99s (us):";
        for (double p99 : window_p99_us)
            windows += " " + std::to_string(static_cast<long>(p99));
        report.note(windows);
        report.attempted = pass.outputs.size();
        report.failed = pass.failed;
        report.add("setup_s", quantile(setups, 0.5), "s");
        report.add("optimize_p50_us", quantile(latency_us, 0.5), "us");
        report.add("optimize_p99_us", quantile(window_p99_us, 0.5), "us");
        report.add("max_rps_under_slo", max_rps, "1/s");
        report.add("search_ms_p50", quantile(search_us, 0.5) * 1e-3, "ms");
        report.add("search_ms_p90", quantile(search_us, 0.9) * 1e-3, "ms");
        report.add("quality_gap_db", mean(gaps), "dB");
        report.add("peak_rss_mib", peak_rss_mib(), "MiB");
        std::snprintf(line, sizeof line, "host.calib_us start %.1f end %.1f",
                      calib_start, host_calibration_us());
        report.note(line);
        return;
    }

    // Traced run: two identical scenes, one called untraced and one
    // traced, alternating call by call so host drift hits both alike; the
    // outputs must match bit for bit. A third identical scene is called
    // untraced with its workers on kThreads CPUs instead of one: the
    // ratio of call times is the parallel speedup the single-CPU pin of
    // the timed passes hides.
    std::unique_ptr<core::System> plain_system = spec.build();
    std::unique_ptr<core::System> system = spec.build();
    std::unique_ptr<core::System> wide_system = spec.build();
    Tracer off(false);
    Tracer tracer(true);
    SearchCounts unused;
    SearchCounts counts;
    Caller plain_caller(spec, *plain_system, options.seed, off, unused);
    Caller traced_caller(spec, *system, options.seed, tracer, counts);
    Caller wide_caller(spec, *wide_system, options.seed, off, unused);
    const CacheMarks marks = cache_marks(*system);
    std::int64_t traced_wall_ns = 0;
    const Clock::time_point t0 = Clock::now();
    while (plain_caller.pass.outputs.empty() ||
           seconds_since(t0) < options.seconds * 0.7) {
        {
            const PinCpus pin(1);
            plain_caller.call();
            const std::int64_t start_ns = tracer.now_ns();
            traced_caller.call();
            traced_wall_ns += tracer.now_ns() - start_ns;
        }
        const PinCpus pin(kThreads);
        wide_caller.call();
    }
    const Pass& plain = plain_caller.pass;
    const Pass& traced = traced_caller.pass;
    if (traced.outputs != plain.outputs)
        fail("traced outputs differ from untraced outputs");
    if (wide_caller.pass.outputs != plain.outputs)
        fail("outputs on " + std::to_string(kThreads) +
             " CPUs differ from outputs on one");
    report.note("traced and " + std::to_string(kThreads) +
                "-CPU outputs match untraced outputs bit for bit (" +
                std::to_string(plain.outputs.size()) + " calls)");
    report.attempted = traced.outputs.size();
    report.failed = traced.failed;

    for (const char* name :
         {"service.submit_us", "service.cycle_self_us", "service.take_us",
          "message.encode_us", "message.decode_us",
          "service.queue_wait_p50_us", "service.queue_wait_p99_us",
          "gen.late_p99_us"})
        report.add(name, 0.0, "us");
    for (const char* name :
         {"service.admitted", "service.served", "service.rejected",
          "service.expired", "service.queue_depth_max"})
        report.add(name, 0.0, "count");
    report_traced(tracer, traced_wall_ns, counts, *system, marks,
                  mean(plain.call_us), mean(traced.call_us), traced.failed,
                  traced.outputs.size(), report);
    report.add("engine.speedup_2cpu",
               quantile(plain.call_us, 0.5) /
                   quantile(wide_caller.pass.call_us, 0.5),
               "x");
    tracer.write(options.spans_out);

    probe_layers(ProbeScene{*system, 0, kThreads, spec.batch_size, spec.heavy},
                 report);
    report.add("host.calib_us", (calib_start + host_calibration_us()) * 0.5,
               "us");
}

}  // namespace pressbench
