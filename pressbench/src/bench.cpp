#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

namespace pressbench {

void fail(const std::string& what) { throw CorrectnessError{what}; }

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1,
                                values.size()) -
        1;
    return values[index];
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

std::size_t beyond(const std::vector<double>& values, double q) {
    const double cut = quantile(values, q);
    return static_cast<std::size_t>(
        std::count_if(values.begin(), values.end(),
                      [cut](double v) { return v > cut; }));
}

namespace {
volatile double calibration_sink = 0.0;
}  // namespace

double host_calibration_us() {
    // A dependent multiply-add chain over a small ring: pure scalar
    // compute whose time tracks the core's clock and its load, nothing
    // else. The result feeds a volatile sink so it cannot be elided.
    std::vector<double> samples;
    for (int rep = 0; rep < 7; ++rep) {
        const Clock::time_point t0 = Clock::now();
        std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<unsigned>(rep);
        double acc = 0.0;
        for (int i = 0; i < 400000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999999 + static_cast<double>(x & 0xFFFF);
        }
        calibration_sink = acc;
        samples.push_back(seconds_since(t0) * 1e6);
    }
    return quantile(samples, 0.5);
}

double peak_rss_mib() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

PinCpus::PinCpus(std::size_t count) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) saved_.push_back(c);
    if (saved_.empty()) return;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    for (std::size_t i = saved_.size() - std::min(count, saved_.size());
         i < saved_.size(); ++i)
        CPU_SET(saved_[i], &pinned);
    if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) saved_.clear();
}

PinCpus::~PinCpus() {
    if (saved_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : saved_) CPU_SET(c, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------------

namespace {
/// Scheduled arrivals are periodic with +-10% seeded jitter.
constexpr double kJitter = 0.2;
/// Rate staircase: first ratio, smallest ratio, seconds of schedule per
/// rung (see run_load).
constexpr double kRateRatio = 1.5;
constexpr double kMinRatio = 1.05;
constexpr double kStepSeconds = 1.0;
}  // namespace

std::vector<double> schedule(double rate, double seconds,
                             press::util::Rng& rng) {
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(rate * seconds)));
    std::vector<double> offsets(n);
    for (std::size_t k = 0; k < n; ++k)
        offsets[k] = (static_cast<double>(k) + 0.5 +
                      kJitter * (rng.uniform(0.0, 1.0) - 0.5)) /
                     rate;
    return offsets;
}

void wait_until(Clock::time_point due) {
    while (Clock::now() < due) {
    }
}

double run_load(const LoadShape& shape, const StepFn& step) {
    struct Rung {
        double rate;
        StepSummary summary;
        bool ok;
    };
    const auto run = [&](double rate, double seconds, bool nominal) {
        const StepSummary s = step(rate, seconds, nominal);
        return Rung{rate,
                    s,
                    s.p99_us <= shape.limit_us &&
                        s.late_end_us <= shape.limit_us && s.failed == 0};
    };
    // Where the worse of p99 and end backlog crosses the limit between a
    // passing rung and a missing one at a higher rate, on the log of that
    // figure, which climbs steeply near capacity.
    const auto knee = [&](const Rung& pass, const Rung& miss) {
        const auto worst = [](const StepSummary& s) {
            return std::max(s.p99_us, s.late_end_us);
        };
        const double lo = std::log(std::max(worst(pass.summary), 1.0));
        const double hi = std::log(std::max(worst(miss.summary), 1.0));
        if (hi <= lo) return pass.rate;  // missed on failures alone
        const double frac = std::clamp(
            (std::log(shape.limit_us) - lo) / (hi - lo), 0.0, 1.0);
        return pass.rate + frac * (miss.rate - pass.rate);
    };

    int rungs = static_cast<int>(shape.staircase_seconds / kStepSeconds);
    double ratio = kRateRatio;
    Rung last{};  ///< the first nominal window, then the latest rung
    double highest_ok = 0.0;
    std::vector<double> knees;
    const auto next_rung = [&] {
        if (rungs == 0) return;
        --rungs;
        const Rung r = run(last.ok ? last.rate * ratio : last.rate / ratio,
                           kStepSeconds, false);
        if (r.ok) highest_ok = std::max(highest_ok, r.rate);
        if (r.ok != last.ok) {
            knees.push_back(r.ok ? knee(r, last) : knee(last, r));
            ratio = std::max(std::sqrt(ratio), kMinRatio);
        }
        last = r;
    };
    for (int w = 0; w < kNominalWindows; ++w) {
        const Rung window = run(shape.nominal_rate,
                                shape.nominal_seconds / kNominalWindows, true);
        if (w == 0) {
            last = window;
            if (window.ok) highest_ok = window.rate;
        }
        next_rung();
    }
    while (rungs > 0) next_rung();
    if (knees.empty()) return highest_ok;  // never crossed: a lower bound
    return quantile(knees, 0.5);
}

// ---------------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
}

std::int32_t Tracer::open(const char* name) {
    SpanRecord record;
    record.name = name;
    record.start_ns = now_ns();
    record.parent = stack_.empty() ? -1 : stack_.back();
    record.request = request_;
    spans_.push_back(record);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void Tracer::close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const SpanRecord& s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
    return self;
}

namespace {

std::vector<double> per_request(const std::vector<SpanRecord>& spans,
                                const std::vector<std::int64_t>& value_ns,
                                const std::string& name) {
    std::map<std::uint32_t, std::int64_t> sums;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (name == spans[i].name) sums[spans[i].request] += value_ns[i];
    std::vector<double> out;
    out.reserve(sums.size());
    for (const auto& [request, ns] : sums)
        out.push_back(static_cast<double>(ns) * 1e-3);
    return out;
}

}  // namespace

std::vector<double> Tracer::per_request_self_us(const std::string& name) const {
    return per_request(spans_, self_ns(), name);
}

std::vector<double> Tracer::per_request_total_us(
    const std::string& name) const {
    std::vector<std::int64_t> duration(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        duration[i] = spans_[i].end_ns - spans_[i].start_ns;
    return per_request(spans_, duration, name);
}

double Tracer::print_layer_table(std::int64_t wall_ns) const {
    struct Row {
        std::uint64_t count = 0;
        std::int64_t self_ns = 0;
    };
    std::map<std::string, Row> rows;
    const std::vector<std::int64_t> self = self_ns();
    std::int64_t attributed = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row& row = rows[spans_[i].name];
        ++row.count;
        row.self_ns += self[i];
        attributed += self[i];
    }
    const double wall = static_cast<double>(std::max<std::int64_t>(wall_ns, 1));
    std::printf("layer table (self time; rows sum to the traced wall time)\n");
    std::printf("  %-20s %10s %12s %8s\n", "span", "count", "self_ms",
                "share%");
    for (const auto& [name, row] : rows)
        std::printf("  %-20s %10llu %12.3f %8.2f\n", name.c_str(),
                    static_cast<unsigned long long>(row.count),
                    static_cast<double>(row.self_ns) * 1e-6,
                    static_cast<double>(row.self_ns) / wall * 100.0);
    const std::int64_t unattributed = wall_ns - attributed;
    const double unattributed_pct =
        static_cast<double>(unattributed) / wall * 100.0;
    std::printf("  %-20s %10s %12.3f %8.2f\n", "unattributed", "-",
                static_cast<double>(unattributed) * 1e-6, unattributed_pct);
    std::printf("  %-20s %10s %12.3f %8.2f\n", "total (wall)", "-",
                static_cast<double>(wall_ns) * 1e-6, 100.0);
    return unattributed_pct;
}

void Tracer::write(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) fail("cannot write spans to " + path);
    std::fprintf(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        std::fprintf(out, "%zu\t%d\t%u\t%s\t%lld\t%lld\n", i, s.parent,
                     s.request, s.name, static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns));
    }
    if (std::fclose(out) != 0) fail("cannot write spans to " + path);
}

// ---------------------------------------------------------------------

namespace control = press::control;

control::BatchEvalFn TimedSearcher::wrap(
    const control::BatchEvalFn& eval) const {
    return [this, &eval](const std::vector<press::surface::Config>& batch) {
        ++counts_.batches;
        counts_.candidates += batch.size();
        Span span(&tracer_, "batch.eval");
        return eval(batch);
    };
}

control::CoordinateEvalFn TimedSearcher::wrap(
    const control::CoordinateEvalFn& coordinate) const {
    if (!coordinate) return {};
    return [this, &coordinate](const press::surface::Config& base,
                               std::size_t element,
                               const std::vector<int>& states) {
        ++counts_.batches;
        counts_.candidates += states.size();
        Span span(&tracer_, "batch.eval");
        return coordinate(base, element, states);
    };
}

control::SearchResult TimedSearcher::search(
    const press::surface::ConfigSpace& space, const control::EvalFn& eval,
    std::size_t max_evals, press::util::Rng& rng,
    const control::StopFn& stop) const {
    ++counts_.calls;
    Span span(&tracer_, "search");
    const control::EvalFn timed = [this, &eval](
                                      const press::surface::Config& c) {
        ++counts_.batches;
        ++counts_.candidates;
        Span eval_span(&tracer_, "batch.eval");
        return eval(c);
    };
    return inner_.search(space, timed, max_evals, rng, stop);
}

control::SearchResult TimedSearcher::search_batched(
    const press::surface::ConfigSpace& space, const control::BatchEvalFn& eval,
    std::size_t max_evals, press::util::Rng& rng, const control::StopFn& stop,
    std::size_t batch_hint) const {
    ++counts_.calls;
    Span span(&tracer_, "search");
    return inner_.search_batched(space, wrap(eval), max_evals, rng, stop,
                                 batch_hint);
}

control::SearchResult TimedSearcher::search_batched(
    const press::surface::ConfigSpace& space, const control::BatchEvalFn& eval,
    const control::CoordinateEvalFn& coordinate, std::size_t max_evals,
    press::util::Rng& rng, const control::StopFn& stop,
    std::size_t batch_hint) const {
    ++counts_.calls;
    Span span(&tracer_, "search");
    return inner_.search_batched(space, wrap(eval), wrap(coordinate),
                                 max_evals, rng, stop, batch_hint);
}

}  // namespace pressbench
