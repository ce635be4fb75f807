// study_service and study_mobile: the Section 3.2.1 study scene behind an
// in-process control::Service, driven open loop by one session.
//
// The generator and the service share this thread. Request k of a rate
// step is due at a seeded, jittered periodic time; the generator waits
// for it, advances the service SimClock by the scheduled gap (a fixed
// schedule, never wall time, so admission and expiry repeat run to run),
// submits the frame, runs one service cycle and takes the reply. A
// request that comes due while the previous one is still being served
// waits in the generator, so latency is timed from the scheduled send
// time and includes that wait (no coordinated omission).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <variant>

#include "bench.hpp"
#include "control/message.hpp"
#include "control/objective.hpp"
#include "control/service.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "workloads.hpp"

namespace pressbench {

namespace core = press::core;
namespace control = press::control;
using press::surface::Config;

namespace {

constexpr std::uint64_t kSceneSeed = 100;
/// The service engine's evaluation workers (ServeConfig::threads).
constexpr std::size_t kEngineThreads = 1;
/// The quasi-static coherence window each request may spend (simulated).
constexpr std::uint32_t kBudgetUs = 80000;
/// Peak RSS is read once this many requests have been made (a fixed
/// count, so the figure does not follow host speed).
constexpr std::uint32_t kRssAfterRequests = 3000;
/// Offered rates at which optimize_p50_us / optimize_p99_us are taken:
/// the same utilization (about 30%) for the static and the mobile client,
/// whose every request also rebuilds the link basis.
constexpr double kNominalRateStatic = 200.0;
constexpr double kNominalRateMobile = 100.0;
/// Latency limit on optimize_p99_us for max_rps_under_slo: half the
/// coherence window, so a configuration is still fresh when it lands.
constexpr double kLatencyLimitUs = 40000.0;
/// quality_gap_db averages the first this-many requests of a run (topped
/// up with untimed requests when the timed steps made fewer), so it is
/// fixed per seed: engine results depend on request order, not timing.
constexpr std::size_t kQualityRequests = 4000;
/// Mobile client: per-request RX step (m) and walk half-width (m).
constexpr double kStepMinM = 0.002, kStepMaxM = 0.005, kWalkHalfM = 0.02;
/// Exhaustive noise-free min-SNR optimum (dB) of the 64 configurations
/// at the scene's initial endpoints, recorded with the benchmark; every
/// run recomputes it.
constexpr double kRecordedOptimumDb = 28.781356657;

/// One built scene + service + session.
struct Study {
    std::unique_ptr<core::LinkScenario> scenario;
    std::unique_ptr<control::Service> service;
    control::Service::SessionId session = 0;
    std::uint32_t seq = 1;
    press::em::Vec3 rx_origin;
    /// Traced engine only: when the current request's engine call began.
    Clock::time_point engine_start;
    /// Peak RSS once kRssAfterRequests requests were made. The mobile
    /// client's every new position adds an entry to the medium's path
    /// cache, so memory grows with requests.
    double rss_mib = 0.0;
};

struct Output {
    Config applied;
    std::int32_t score_centi = 0;
    std::uint32_t evaluations = 0;
    bool operator==(const Output&) const = default;
};

struct StepResult {
    double rate = 0.0;
    std::vector<double> latency_us;  ///< due -> reply out
    std::vector<double> busy_us;     ///< send -> reply out
    std::vector<double> late_us;     ///< due -> send
    std::vector<double> search_us;   ///< reply compute_us
    std::vector<double> queue_wait_us;  ///< due -> engine start (traced)
    std::vector<Output> outputs;
    std::vector<press::em::Vec3> positions;  ///< RX per request (mobile)
    std::uint64_t failed = 0;
    std::size_t queue_depth_max = 0;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

control::OptimizeRequest make_request(const core::LinkScenario& scenario) {
    control::OptimizeRequest req;
    req.array_id = static_cast<std::uint16_t>(scenario.array_id);
    req.link_id = static_cast<std::uint16_t>(scenario.link_id);
    req.objective = static_cast<std::uint8_t>(
        control::ServiceObjective::kMinSnr);
    req.searcher = static_cast<std::uint8_t>(control::ServiceSearcher::kGreedy);
    req.budget_us = kBudgetUs;
    return req;
}

/// The benchmark's copy of the engine's optimize for kMinSnr + kGreedy,
/// with the search decorated. Same objective, searcher, plane, threads
/// and rng seed as core::make_service_engine, built the same way (both
/// allocated per request), so replies must match the untraced engine's
/// bit for bit (the traced run checks it) and only the tracing differs
/// in cost.
control::ServiceEngine traced_engine(core::System& system,
                                     const core::ServeConfig& config,
                                     Tracer& tracer, SearchCounts& counts,
                                     Clock::time_point& engine_start) {
    control::ServiceEngine engine = core::make_service_engine(system, config);
    auto rng = std::make_shared<press::util::Rng>(config.seed);
    engine.optimize = [&system, &tracer, &counts, &engine_start, rng, config](
                          const control::OptimizeRequest& req,
                          double budget_s) {
        engine_start = Clock::now();
        Span span(&tracer, "engine.optimize");
        const auto objective =
            std::make_unique<control::MinSnrObjective>(req.link_id);
        const auto greedy =
            std::make_unique<control::GreedyCoordinateDescent>();
        const TimedSearcher searcher(*greedy, tracer, counts);
        const control::OptimizationOutcome outcome = system.optimize_fast(
            req.array_id, *objective, searcher, config.plane, budget_s, *rng,
            config.threads);
        control::EngineResult out;
        out.ok = outcome.final_apply_ok &&
                 !outcome.search.best_config.empty() &&
                 outcome.search.best_score > control::kFailedTrialScore;
        out.best_score = outcome.search.best_score_remeasured;
        out.evaluations =
            static_cast<std::uint32_t>(outcome.search.evaluations);
        out.sim_elapsed_s = outcome.elapsed_s;
        out.compute_s = outcome.search.compute_s;
        return out;
    };
    return engine;
}

std::unique_ptr<Study> setup_study(std::uint64_t seed, Tracer* tracer,
                                   SearchCounts* counts) {
    auto study = std::make_unique<Study>();
    study->scenario = std::make_unique<core::LinkScenario>(
        core::make_link_scenario(kSceneSeed, /*line_of_sight=*/false));
    core::System& system = study->scenario->system;
    (void)system.channel_response(study->scenario->link_id);  // warm basis
    study->rx_origin = system.link(study->scenario->link_id).rx.position;
    core::ServeConfig config;
    config.threads = kEngineThreads;
    config.seed = mix(seed, 1);
    control::ServiceEngine engine =
        tracer != nullptr ? traced_engine(system, config, *tracer, *counts,
                                          study->engine_start)
                          : core::make_service_engine(system, config);
    study->service = std::make_unique<control::Service>(std::move(engine));
    study->session = study->service->connect();
    study->service->submit(study->session,
                           control::encode(control::Hello{}, study->seq++));
    const auto frames = study->service->take_outgoing(study->session);
    if (frames.size() != 1 ||
        !std::holds_alternative<control::HelloAck>(
            control::decode(frames[0]).message))
        fail("service did not acknowledge Hello");
    return study;
}

/// Seeded bounded walk of the RX endpoint (reflects at the box edges).
class Walk {
public:
    Walk(std::uint64_t seed, press::em::Vec3 origin)
        : rng_(mix(seed, 3)), origin_(origin), at_(origin) {}
    press::em::Vec3 next() {
        const double angle = rng_.uniform(0.0, 2.0 * std::numbers::pi);
        const double len = rng_.uniform(kStepMinM, kStepMaxM);
        at_.x = reflect(at_.x + len * std::cos(angle), origin_.x);
        at_.y = reflect(at_.y + len * std::sin(angle), origin_.y);
        return at_;
    }

private:
    static double reflect(double v, double center) {
        if (v > center + kWalkHalfM) return 2 * (center + kWalkHalfM) - v;
        if (v < center - kWalkHalfM) return 2 * (center - kWalkHalfM) - v;
        return v;
    }
    press::util::Rng rng_;
    press::em::Vec3 origin_;
    press::em::Vec3 at_;
};

/// Runs one open-loop rate step of `seconds` of schedule.
StepResult run_step(Study& study, double rate, double seconds,
                    press::util::Rng& schedule_rng, Walk* walk,
                    Tracer& tracer, std::uint32_t& request_id) {
    StepResult step;
    step.rate = rate;
    const std::vector<double> offsets = schedule(rate, seconds, schedule_rng);
    const std::size_t n = offsets.size();
    control::Service& service = *study.service;
    core::System& system = study.scenario->system;
    const control::OptimizeRequest req = make_request(*study.scenario);
    for (auto* v : {&step.latency_us, &step.busy_us, &step.late_us,
                    &step.search_us})
        v->reserve(n);
    step.outputs.reserve(n);

    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    double previous_offset = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        tracer.set_request(request_id++);
        if (walk != nullptr) {
            Span span(&tracer, "mobile.move");
            const press::em::Vec3 at = walk->next();
            system.link(study.scenario->link_id).rx.position = at;
            step.positions.push_back(at);
        }
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offsets[k]));
        {
            Span span(&tracer, "gen.idle");
            wait_until(due);
        }
        const Clock::time_point sent = Clock::now();
        service.advance_clock(offsets[k] - previous_offset);
        previous_offset = offsets[k];
        const std::uint32_t seq = study.seq++;
        std::vector<std::uint8_t> frame;
        {
            Span span(&tracer, "message.encode");
            frame = control::encode(control::Message{req}, seq);
        }
        {
            Span span(&tracer, "service.submit");
            service.submit(study.session, frame);
        }
        step.queue_depth_max =
            std::max(step.queue_depth_max, service.queue_depth());
        {
            Span span(&tracer, "service.cycle");
            (void)service.run_cycle();
        }
        std::vector<std::vector<std::uint8_t>> frames;
        {
            Span span(&tracer, "service.take");
            frames = service.take_outgoing(study.session);
        }
        const Clock::time_point replied = Clock::now();
        std::vector<control::Decoded> decoded;
        {
            Span span(&tracer, "message.decode");
            for (const auto& f : frames) {
                try {
                    decoded.push_back(control::decode(f));
                } catch (const std::exception& e) {
                    fail(std::string("reply frame does not decode: ") +
                         e.what());
                }
            }
        }
        step.latency_us.push_back(
            std::chrono::duration<double, std::micro>(replied - due).count());
        step.busy_us.push_back(
            std::chrono::duration<double, std::micro>(replied - sent).count());
        step.late_us.push_back(
            std::chrono::duration<double, std::micro>(sent - due).count());

        const control::OptimizeReply* reply = nullptr;
        for (const control::Decoded& d : decoded) {
            if (d.seq != seq) fail("reply carries a foreign sequence number");
            reply = std::get_if<control::OptimizeReply>(&d.message);
        }
        Output out;
        out.applied = system.medium().array(study.scenario->array_id)
                          .current_config();
        if (decoded.size() != 1 || reply == nullptr || reply->status != 0) {
            ++step.failed;  // reject, expiry, degraded or unanswered
        } else {
            if (reply->evaluations == 0)
                fail("served reply reports zero evaluations");
            out.score_centi = reply->best_score_centi;
            out.evaluations = reply->evaluations;
            step.search_us.push_back(reply->compute_us);
            if (tracer.enabled())  // the engine ran this request
                step.queue_wait_us.push_back(
                    std::chrono::duration<double, std::micro>(
                        study.engine_start - due)
                        .count());
        }
        step.outputs.push_back(std::move(out));
        if (request_id == kRssAfterRequests) study.rss_mib = peak_rss_mib();
    }
    if (!service.accounting_balanced())
        fail("service ledger unbalanced after a rate step");
    return step;
}

double min_snr_true(core::System& system, std::size_t array_id,
                    const Config& config) {
    system.apply(array_id, config);
    return control::MinSnrObjective(0).score(system.observe_true());
}

/// Noise-free min-SNR of every configuration of the study array, by
/// flat index.
std::vector<double> all_scores(core::System& system, std::size_t array_id) {
    const press::surface::ConfigSpace space =
        system.medium().array(array_id).config_space();
    std::vector<double> scores(space.size());
    for (std::uint64_t i = 0; i < space.size(); ++i)
        scores[i] = min_snr_true(system, array_id, space.at(i));
    return scores;
}

/// Mean over the first kQualityRequests requests of (optimum -
/// noise-free score of the configuration the request left applied).
/// Static client: one optimum; mobile client: the optimum at each
/// request's RX position.
double quality_gap_db(Study& study, const std::vector<StepResult>& steps) {
    core::System& system = study.scenario->system;
    const std::size_t array_id = study.scenario->array_id;
    press::sdr::Link& link = system.link(study.scenario->link_id);
    const press::em::Vec3 saved = link.rx.position;
    const press::surface::ConfigSpace space =
        system.medium().array(array_id).config_space();
    std::vector<double> gaps;
    std::vector<double> scores;
    for (const StepResult& step : steps) {
        for (std::size_t k = 0; k < step.outputs.size(); ++k) {
            if (gaps.size() == kQualityRequests) break;
            if (!step.positions.empty() || scores.empty()) {
                if (!step.positions.empty())
                    link.rx.position = step.positions[k];
                scores = all_scores(system, array_id);
            }
            const double best = *std::max_element(scores.begin(), scores.end());
            gaps.push_back(best -
                           scores[space.index_of(step.outputs[k].applied)]);
        }
    }
    link.rx.position = saved;
    if (gaps.size() != kQualityRequests) fail("too few requests for quality");
    return mean(gaps);
}

void check_reference(Study& study, Report& report) {
    core::System& system = study.scenario->system;
    press::sdr::Link& link = system.link(study.scenario->link_id);
    const press::em::Vec3 saved = link.rx.position;
    link.rx.position = study.rx_origin;
    const std::vector<double> scores =
        all_scores(system, study.scenario->array_id);
    link.rx.position = saved;
    const double best = *std::max_element(scores.begin(), scores.end());
    char line[160];
    std::snprintf(line, sizeof line,
                  "reference: exhaustive optimum %.9f dB (recorded %.9f)",
                  best, kRecordedOptimumDb);
    report.note(line);
    if (std::abs(best - kRecordedOptimumDb) > 1e-6)
        fail(std::string("study-scene reference does not reproduce: ") +
             line);
}

/// One freshly built set-up driven open loop (set-up excluded). The
/// schedule stream, the mobile walk and the request numbering are its
/// own, so two passes built from the same seed offer identical requests.
struct Pass {
    Pass(const Options& options, bool mobile, std::unique_ptr<Study> built,
         Tracer& tracer)
        : study(std::move(built)),
          tracer_(&tracer),
          schedule_rng_(mix(options.seed, 2)),
          walk_(mobile ? std::make_unique<Walk>(options.seed,
                                                study->rx_origin)
                       : nullptr) {
        nominal.rate = mobile ? kNominalRateMobile : kNominalRateStatic;
    }

    /// Runs one step of `seconds` of schedule at `rate`; kept in `all`.
    const StepResult& step(double rate, double seconds) {
        all.push_back(run_step(*study, rate, seconds, schedule_rng_,
                               walk_.get(), *tracer_, request_id));
        return all.back();
    }
    /// One nominal-rate window of `seconds`, merged into `nominal`.
    const StepResult& nominal_window(double seconds);

    std::unique_ptr<Study> study;
    std::uint32_t request_id = 0;
    /// Every nominal-rate window merged, in request order.
    StepResult nominal;
    std::vector<double> window_p99_us;
    /// The rate staircase's rungs, in run order.
    std::vector<StepResult> rungs;
    /// Every step in request order (nominal windows, rungs, untimed
    /// top-up).
    std::vector<StepResult> all;
    /// max_rps_under_slo, as run_load finds it.
    double max_rps = 0.0;

private:
    Tracer* tracer_;
    press::util::Rng schedule_rng_;
    std::unique_ptr<Walk> walk_;
};

void append(StepResult& into, const StepResult& step) {
    for (auto [to, from] :
         {std::pair{&into.latency_us, &step.latency_us},
          std::pair{&into.busy_us, &step.busy_us},
          std::pair{&into.late_us, &step.late_us},
          std::pair{&into.search_us, &step.search_us},
          std::pair{&into.queue_wait_us, &step.queue_wait_us}})
        to->insert(to->end(), from->begin(), from->end());
    into.outputs.insert(into.outputs.end(), step.outputs.begin(),
                        step.outputs.end());
    into.positions.insert(into.positions.end(), step.positions.begin(),
                          step.positions.end());
    into.failed += step.failed;
    into.queue_depth_max = std::max(into.queue_depth_max, step.queue_depth_max);
}

const StepResult& Pass::nominal_window(double seconds) {
    const StepResult& window = step(nominal.rate, seconds);
    window_p99_us.push_back(quantile(window.latency_us, 0.99));
    append(nominal, window);
    return window;
}

/// The untraced run: the nominal windows interleaved with the rate
/// staircase, then untimed requests up to `min_requests`.
Pass run_pass(const Options& options, bool mobile, double nominal_seconds,
              double staircase_seconds, std::size_t min_requests,
              std::unique_ptr<Study> study, Tracer& tracer) {
    Pass pass(options, mobile, std::move(study), tracer);
    LoadShape shape;
    shape.nominal_rate = pass.nominal.rate;
    shape.limit_us = kLatencyLimitUs;
    shape.nominal_seconds = nominal_seconds;
    shape.staircase_seconds = staircase_seconds;
    pass.max_rps = run_load(shape, [&](double rate, double seconds,
                                       bool nominal) {
        const StepResult& s = nominal ? pass.nominal_window(seconds)
                                      : pass.step(rate, seconds);
        if (!nominal) pass.rungs.push_back(s);
        return StepSummary{quantile(s.latency_us, 0.99), s.late_us.back(),
                           s.failed};
    });

    if (pass.request_id < min_requests) {
        // Untimed top-up, sent back to back (all due at once).
        constexpr double kBackToBack = 1e6;
        pass.step(kBackToBack,
                  static_cast<double>(min_requests - pass.request_id) /
                      kBackToBack);
    }
    return pass;
}

}  // namespace

void run_study(const Options& options, bool mobile, Report& report) {
    const double calib_start = host_calibration_us();
    char line[256];

    if (!options.trace) {
        const PinCpus pin(1);
        // setup_s: several full set-ups, median; the last one is used.
        std::vector<double> setups;
        std::unique_ptr<Study> study;
        double total = 0.0;
        while (setups.size() < 5 || (total < 0.2 && setups.size() < 200)) {
            study.reset();
            const Clock::time_point t0 = Clock::now();
            study = setup_study(options.seed, nullptr, nullptr);
            setups.push_back(seconds_since(t0));
            total += setups.back();
        }
        std::snprintf(line, sizeof line,
                      "setup: %zu set-ups, p10 %.6f p50 %.6f p90 %.6f s",
                      setups.size(), quantile(setups, 0.1),
                      quantile(setups, 0.5), quantile(setups, 0.9));
        report.note(line);
        Tracer off(false);
        Pass pass = run_pass(options, mobile, options.seconds * 0.6,
                             options.seconds * 0.4, kQualityRequests,
                             std::move(study), off);
        check_reference(*pass.study, report);

        const StepResult& nominal = pass.nominal;
        for (const StepResult& s : pass.all) {
            report.attempted += s.outputs.size();
            report.failed += s.failed;
        }
        for (const StepResult& s : pass.rungs) {
            std::snprintf(line, sizeof line,
                          "step %7.1f req/s: n=%zu p50=%.0f us p99=%.0f us "
                          "late_end=%.0f us failed=%llu",
                          s.rate, s.latency_us.size(),
                          quantile(s.latency_us, 0.5),
                          quantile(s.latency_us, 0.99), s.late_us.back(),
                          static_cast<unsigned long long>(s.failed));
            report.note(line);
        }
        std::snprintf(line, sizeof line,
                      "nominal %.0f req/s: n=%zu, pooled p99 %.0f us with "
                      "%zu samples beyond, busy p50 %.0f max %.0f us, gen "
                      "late p99 %.0f us",
                      nominal.rate, nominal.latency_us.size(),
                      quantile(nominal.latency_us, 0.99),
                      beyond(nominal.latency_us, 0.99),
                      quantile(nominal.busy_us, 0.5),
                      quantile(nominal.busy_us, 1.0),
                      quantile(nominal.late_us, 0.99));
        report.note(line);
        std::string windows = "nominal window p99s (us):";
        for (double p99 : pass.window_p99_us)
            windows += " " + std::to_string(static_cast<long>(p99));
        report.note(windows + ", " +
                    std::to_string(nominal.latency_us.size() /
                                   pass.window_p99_us.size()) +
                    " samples each");
        report.add("setup_s", quantile(setups, 0.5), "s");
        report.add("optimize_p50_us", quantile(nominal.latency_us, 0.5), "us");
        report.add("optimize_p99_us", quantile(pass.window_p99_us, 0.5), "us");
        report.add("max_rps_under_slo", pass.max_rps, "1/s");
        report.add("search_ms_p50", quantile(nominal.search_us, 0.5) * 1e-3,
                   "ms");
        report.add("search_ms_p90", quantile(nominal.search_us, 0.9) * 1e-3,
                   "ms");
        report.add("quality_gap_db", quality_gap_db(*pass.study, pass.all),
                   "dB");
        report.add("peak_rss_mib", pass.study->rss_mib, "MiB");
        const double calib_end = host_calibration_us();
        std::snprintf(line, sizeof line, "host.calib_us start %.1f end %.1f",
                      calib_start, calib_end);
        report.note(line);
        return;
    }

    // Traced run: two identical set-ups, one on the library's engine and
    // untraced, one on the benchmark's decorated copy and traced. They
    // offer the same nominal-rate requests in alternating windows, so host
    // drift hits both alike; the outputs must match bit for bit.
    const double seconds = options.seconds * 0.35;
    Tracer off(false);
    Tracer tracer(true);
    SearchCounts counts;
    Pass plain(options, mobile, setup_study(options.seed, nullptr, nullptr),
               off);
    Pass traced(options, mobile, setup_study(options.seed, &tracer, &counts),
                tracer);
    const CacheMarks marks = cache_marks(traced.study->scenario->system);
    std::int64_t traced_wall_ns = 0;
    {
        const PinCpus pin(1);
        for (int w = 0; w < kNominalWindows; ++w) {
            plain.nominal_window(seconds / kNominalWindows);
            const std::int64_t start_ns = tracer.now_ns();
            traced.nominal_window(seconds / kNominalWindows);
            traced_wall_ns += tracer.now_ns() - start_ns;
        }
    }
    if (traced.nominal.outputs != plain.nominal.outputs)
        fail("traced outputs differ from untraced outputs");
    report.note("traced outputs match untraced outputs bit for bit (" +
                std::to_string(plain.nominal.outputs.size()) + " requests)");

    core::System& system = traced.study->scenario->system;
    const control::Service::Stats& stats = traced.study->service->stats();
    const StepResult& step = traced.nominal;
    report.attempted = step.outputs.size();
    report.failed = step.failed;

    const auto p50 = [&](const char* span) {
        return quantile(tracer.per_request_self_us(span), 0.5);
    };
    report.add("service.submit_us", p50("service.submit"), "us");
    report.add("service.cycle_self_us", p50("service.cycle"), "us");
    report.add("service.take_us", p50("service.take"), "us");
    report.add("message.encode_us", p50("message.encode"), "us");
    report.add("message.decode_us", p50("message.decode"), "us");
    report.add("service.queue_wait_p50_us", quantile(step.queue_wait_us, 0.5),
               "us");
    report.add("service.queue_wait_p99_us",
               quantile(step.queue_wait_us, 0.99), "us");
    report.add("gen.late_p99_us", quantile(step.late_us, 0.99), "us");
    report.add("service.admitted", static_cast<double>(stats.admitted),
               "count");
    report.add("service.served", static_cast<double>(stats.served), "count");
    report.add("service.rejected", static_cast<double>(stats.rejected),
               "count");
    report.add("service.expired", static_cast<double>(stats.expired), "count");
    report.add("service.queue_depth_max",
               static_cast<double>(step.queue_depth_max), "count");
    report_traced(tracer, traced_wall_ns, counts, system, marks,
                  mean(plain.nominal.busy_us), mean(step.busy_us),
                  step.failed, step.outputs.size(), report);
    report.add("engine.speedup_2cpu", 0.0, "x");  // one evaluation worker
    tracer.write(options.spans_out);

    probe_layers(ProbeScene{system, traced.study->scenario->array_id,
                            kEngineThreads, 3, false},
                 report);
    report.add("host.calib_us", (calib_start + host_calibration_us()) * 0.5,
               "us");
}

}  // namespace pressbench
