// Shared pieces of the PRESS benchmark driver: run options, the metric
// report, exact quantiles, host calibration, and the span recorder the
// traced run uses at every layer boundary the benchmark calls across.
//
// Spans are recorded only from the benchmark's own code, never inside the
// library: around the calls it makes into control::Service, the wire
// codec, the engine's optimize, and (through TimedSearcher) the searcher
// and the batch-evaluation callbacks the searcher invokes. Everything
// runs on the calling thread, so the recorder needs no synchronization.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "control/search.hpp"
#include "util/rng.hpp"

namespace pressbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans_out;  ///< where the traced run writes its spans
};

/// Thrown when an output of the program under test is wrong; main() turns
/// it into a nonzero exit without a result line.
struct CorrectnessError {
    std::string what;
};
[[noreturn]] void fail(const std::string& what);

/// Named metrics in print order.
struct Report {
    struct Entry {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> entries;
    std::vector<std::string> notes;  ///< free-form lines printed first
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add(const std::string& name, double value, const std::string& unit) {
        entries.push_back({name, value, unit});
    }
    void note(const std::string& line) { notes.push_back(line); }
};

/// Exact order statistic: the smallest sample with at least q of the
/// samples at or below it (nearest rank). Empty input -> 0.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Samples strictly above the q-quantile (how many the percentile rests on).
std::size_t beyond(const std::vector<double>& values, double q);

/// Median microseconds of a fixed pure-compute loop (no allocation, no
/// library code): what this host delivers right now.
double host_calibration_us();
double peak_rss_mib();

/// Confines the calling thread, and every thread it creates from now on
/// (the evaluation workers), to the last `count` CPUs of its current
/// affinity set (all of them if it has fewer), and restores the saved set
/// on destruction. The timed passes run on one CPU: on more, every batch
/// hand-off between the caller and a worker wakes another virtual CPU,
/// and on a shared, virtualized host those wake-ups intermittently stall
/// for tens of milliseconds, so the stalls, not the program, set the tail
/// latency and move the medians run to run.
class PinCpus {
public:
    explicit PinCpus(std::size_t count);
    ~PinCpus();
    PinCpus(const PinCpus&) = delete;
    PinCpus& operator=(const PinCpus&) = delete;

private:
    std::vector<int> saved_;  ///< CPUs of the affinity set on entry
};

// ---------------------------------------------------------------------
// Open-loop load, shared by every workload.
//
// Request k of a step is due at a seeded, jittered periodic time; the
// generator spins until it is due and then sends it. A request that comes
// due while the previous one is still being served waits in the
// generator, so latency is timed from the scheduled send time and
// includes that wait (no coordinated omission).

/// Due times, in seconds from the step's start, of round(rate * seconds)
/// requests (at least one): periodic at `rate` with +-10% seeded jitter.
std::vector<double> schedule(double rate, double seconds,
                             press::util::Rng& rng);

/// Spins rather than sleeps: a sleeping generator's wake-up latency
/// would be charged to the program as lateness.
void wait_until(Clock::time_point due);

/// What the rate staircase needs to know of one open-loop step.
struct StepSummary {
    double p99_us = 0.0;       ///< exact p99 of scheduled send -> done
    double late_end_us = 0.0;  ///< how late the step's last request went out
    std::uint64_t failed = 0;
};

struct LoadShape {
    double nominal_rate = 0.0;     ///< where the latency metrics are taken
    double limit_us = 0.0;         ///< SLO on p99 and on the end backlog
    double nominal_seconds = 0.0;  ///< split into kNominalWindows windows
    double staircase_seconds = 0.0;   ///< kStepSeconds per rung
};

/// The nominal-rate time is split into this many windows, interleaved
/// with the rate staircase so they span the whole run. optimize_p99_us is
/// the median of the windows' p99s: the SLO judged per window, so host
/// hiccups that spoil a few windows do not move it.
constexpr int kNominalWindows = 15;

/// Runs one open-loop step of `seconds` of schedule at `rate`; `nominal`
/// marks the nominal-rate windows.
using StepFn =
    std::function<StepSummary(double rate, double seconds, bool nominal)>;

/// Runs the nominal windows with the rungs of a rate staircase between
/// them and returns max_rps_under_slo: the offered rate at which a
/// one-second step starts to miss the SLO (p99 or end backlog over the
/// limit, or a failure).
///
/// The staircase starts from the nominal rate and moves up by a ratio
/// after a rung that met the SLO and down after one that missed it. At
/// each reversal the ratio shrinks to its square root (x1.5, x1.22,
/// x1.11, then at least x1.05), and the two rungs of the reversal
/// bracket the knee: it is interpolated between them on the log of the
/// worse of p99 and end backlog, which climbs steeply near capacity. The
/// result is the median of these knees. Because the staircase can step
/// back down, a rung that passed in a brief fast phase of the host does
/// not cap the result, and the median spans the whole run. If no rung
/// missed, the result is the highest rate that met the SLO (a lower
/// bound); if none met it, 0.
double run_load(const LoadShape& shape, const StepFn& step);

// ---------------------------------------------------------------------
// Span recorder.

struct SpanRecord {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t request = 0;  ///< request / call the span belongs to
};

class Tracer {
public:
    /// A disabled tracer records nothing (the untraced run passes one).
    explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

    bool enabled() const { return enabled_; }
    void set_request(std::uint32_t request) { request_ = request; }
    std::int32_t open(const char* name);
    void close(std::int32_t id);

    /// Wall nanoseconds since construction (the traced run's time base).
    std::int64_t now_ns() const;

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    std::vector<std::int64_t> self_ns() const;

    /// Per request, the summed self time (us) of every span named `name`;
    /// requests without such a span are skipped.
    std::vector<double> per_request_self_us(const std::string& name) const;
    /// Per request, the summed duration (us) of spans named `name`.
    std::vector<double> per_request_total_us(const std::string& name) const;

    /// Prints the layer table (self time and count per span name, plus an
    /// explicit unattributed row) to stdout; rows sum to `wall_ns`.
    /// Returns the unattributed share of wall time in percent.
    double print_layer_table(std::int64_t wall_ns) const;

    /// Writes every span as one tab-separated line.
    void write(const std::string& path) const;

private:
    bool enabled_;
    Clock::time_point t0_;
    std::uint32_t request_ = 0;
    std::vector<SpanRecord> spans_;
    std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op on a disabled (or null) tracer.
class Span {
public:
    Span(Tracer* tracer, const char* name)
        : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
          id_(tracer_ != nullptr ? tracer_->open(name) : -1) {}
    ~Span() {
        if (tracer_ != nullptr) tracer_->close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer* tracer_;
    std::int32_t id_;
};

/// Per-call search accounting gathered by TimedSearcher.
struct SearchCounts {
    std::uint64_t calls = 0;
    std::uint64_t batches = 0;
    std::uint64_t candidates = 0;
};

/// Decorates a Searcher: forwards every call unchanged and opens a
/// "search" span around it and a "batch.eval" span around every
/// evaluation callback the strategy invokes. The inner strategy sees the
/// same candidates, budget and rng, so results are bit-identical.
class TimedSearcher : public press::control::Searcher {
public:
    TimedSearcher(const press::control::Searcher& inner, Tracer& tracer,
                  SearchCounts& counts)
        : inner_(inner), tracer_(tracer), counts_(counts) {}

    press::control::SearchResult search(
        const press::surface::ConfigSpace& space,
        const press::control::EvalFn& eval, std::size_t max_evals,
        press::util::Rng& rng,
        const press::control::StopFn& stop = nullptr) const override;
    press::control::SearchResult search_batched(
        const press::surface::ConfigSpace& space,
        const press::control::BatchEvalFn& eval, std::size_t max_evals,
        press::util::Rng& rng, const press::control::StopFn& stop = nullptr,
        std::size_t batch_hint = 1) const override;
    press::control::SearchResult search_batched(
        const press::surface::ConfigSpace& space,
        const press::control::BatchEvalFn& eval,
        const press::control::CoordinateEvalFn& coordinate,
        std::size_t max_evals, press::util::Rng& rng,
        const press::control::StopFn& stop = nullptr,
        std::size_t batch_hint = 1) const override;
    std::string name() const override { return inner_.name(); }

private:
    press::control::BatchEvalFn wrap(
        const press::control::BatchEvalFn& eval) const;
    press::control::CoordinateEvalFn wrap(
        const press::control::CoordinateEvalFn& coordinate) const;

    const press::control::Searcher& inner_;
    Tracer& tracer_;
    SearchCounts& counts_;
};

// ---------------------------------------------------------------------
// Workloads. Each fills `report` with its end-to-end metrics (untraced
// run) or its per-layer metrics (traced run), and throws CorrectnessError
// on a wrong output.

void run_study(const Options& options, bool mobile, Report& report);
/// multiuser_search or massive_search, by options.workload.
void run_search(const Options& options, Report& report);

}  // namespace pressbench
