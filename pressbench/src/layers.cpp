// Isolated per-layer probes for the traced run: each times one public
// entry point of one layer, on the workload's own scene, many times over,
// and reports the median. They explain the traced spans (which only see
// layer boundaries the benchmark crosses) from below.
#include <algorithm>
#include <complex>
#include <functional>

#include "bench.hpp"
#include "control/batch.hpp"
#include "core/link_cache.hpp"
#include "core/multilink_cache.hpp"
#include "phy/chanest.hpp"
#include "util/kernels.hpp"
#include "workloads.hpp"

namespace pressbench {

namespace core = press::core;
namespace control = press::control;
namespace kernels = press::util::kernels;
using press::surface::Config;

namespace {

/// Median over `rounds` of the mean microseconds per call of `fn`,
/// each round calling it `reps` times.
double time_us(const std::function<void()>& fn, int reps, int rounds) {
    std::vector<double> samples;
    for (int r = 0; r < rounds; ++r) {
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < reps; ++i) fn();
        samples.push_back(seconds_since(t0) * 1e6 / reps);
    }
    return quantile(samples, 0.5);
}

std::vector<Config> random_configs(const press::surface::ConfigSpace& space,
                                   std::size_t count, press::util::Rng& rng) {
    std::vector<Config> out(count);
    for (Config& c : out) {
        c.resize(space.num_elements());
        for (std::size_t e = 0; e < c.size(); ++e)
            c[e] = static_cast<int>(
                rng.uniform_int(0, space.radices()[e] - 1));
    }
    return out;
}

}  // namespace

void probe_layers(const ProbeScene& scene, Report& report) {
    core::System& system = scene.system;
    const press::sdr::Medium& medium = system.medium();
    const press::sdr::Link& link = system.link(0);
    const std::size_t array_id = scene.array_id;
    const press::surface::ConfigSpace space =
        medium.array(array_id).config_space();
    press::util::Rng rng(0x1A7E5ull);
    const std::vector<Config> configs = random_configs(space, 64, rng);
    const kernels::Dispatch d = kernels::active();

    // core.link_cache: full gather, coordinate base, fused row delta.
    core::LinkCache cache;
    cache.warm(medium, 0, link);
    kernels::SplitVec h;
    kernels::SplitVec base;
    std::size_t next = 0;
    const int reps = scene.heavy ? 50 : 2000;
    report.add("link_cache.gather_us", time_us([&] {
                   cache.response_into(medium, 0, link, array_id,
                                       configs[next++ % configs.size()], h);
               }, reps, 9), "us");
    report.add("link_cache.base_us", time_us([&] {
                   cache.response_base_into(medium, 0, link, array_id,
                                            configs[next++ % configs.size()],
                                            0, base);
               }, reps, 9), "us");
    h.resize(base.size());
    report.add("link_cache.delta_us", time_us([&] {
                   cache.element_row_delta(0, array_id, 0,
                                           static_cast<int>(next++ % 2),
                                           base, h);
               }, reps * 10, 9), "us");

    // core.link_cache rebuild after an endpoint move (em trace + basis
    // build): a fresh position per call so every warm is a miss.
    {
        press::sdr::Link moved = link;
        report.add("link_cache.rebuild_us", time_us([&] {
                       moved.rx.position.x += 0.003;
                       core::LinkCache fresh;
                       fresh.warm(medium, 0, moved);
                   }, 1, scene.heavy ? 3 : 25), "us");
    }

    // em: one environment trace between the link's endpoints.
    report.add("em.trace_us", time_us([&] {
                   auto paths = medium.environment().trace(
                       link.tx, link.rx, medium.ofdm().carrier_hz());
                   if (paths.empty()) fail("em trace returned no paths");
               }, scene.heavy ? 5 : 50, 9), "us");

    // core.multilink_cache over the scene's links: warm and group gather.
    {
        std::vector<press::sdr::Link> links;
        for (std::size_t i = 0; i < system.num_links(); ++i)
            links.push_back(system.link(i));
        core::MultiLinkCache multi;
        report.add("multilink_cache.warm_ms", time_us([&] {
                       multi.invalidate();
                       multi.warm(medium, links);
                   }, 1, scene.heavy ? 3 : 7) * 1e-3, "ms");
        kernels::SplitVec wide;
        report.add("multilink_cache.group_gather_us", time_us([&] {
                       multi.group_response_into(
                           medium, 0, array_id,
                           configs[next++ % configs.size()], wide);
                   }, scene.heavy ? 50 : 500, 9), "us");
    }

    // sdr/phy sounding of one link at the scene's numerology: repeats x
    // tones complex Gaussian draws, LTF combining, fused min-SNR reduce.
    {
        const std::size_t n = medium.ofdm().num_used();
        const std::size_t repeats = system.sounding_repeats();
        const double var = medium.estimate_noise_variance(link);
        cache.response_into(medium, 0, link, array_id, configs[0], h);
        std::vector<double> raw_re(repeats * n), raw_im(repeats * n);
        std::vector<double> mean_re(n), mean_im(n), noise(n);
        press::util::Rng noise_rng(0x50u);
        double sink = 0.0;
        report.add("sounding.us_per_link", time_us([&] {
                       for (std::size_t r = 0; r < repeats; ++r)
                           for (std::size_t k = 0; k < n; ++k) {
                               const std::complex<double> w =
                                   noise_rng.complex_gaussian(var);
                               raw_re[r * n + k] = h.re[k] + w.real();
                               raw_im[r * n + k] = h.im[k] + w.imag();
                           }
                       kernels::ltf_mean_var(d, raw_re.data(), raw_im.data(),
                                             repeats, n, mean_re.data(),
                                             mean_im.data(), noise.data());
                       sink += kernels::snr_db_min(
                           d, mean_re.data(), mean_im.data(), noise.data(),
                           n, press::phy::kSnrCapDb, press::phy::kSnrFloorDb);
                   }, scene.heavy ? 200 : 1000, 9), "us");
        if (!(sink == sink)) fail("sounding probe produced NaN");
    }

    // control.batch: pool construction, dispatch of a no-op batch at the
    // workload's batch size and thread count, and the 2-thread speedup
    // of a 32-candidate batch of the scene's fused single-link score.
    const auto noop = [](const Config&, press::util::Rng&,
                         control::EvalScratch&) { return 0.0; };
    report.add("batch.construct_us", time_us([&] {
                   control::BatchEvaluator pool(noop, 1, scene.threads);
               }, 20, 9), "us");
    {
        control::BatchEvaluator pool(noop, 1, scene.threads);
        const std::vector<Config> batch(configs.begin(),
                                        configs.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                scene.batch_size));
        report.add("batch.dispatch_us", time_us([&] {
                       (void)pool.evaluate(batch);
                   }, 200, 9), "us");
    }
    {
        const std::size_t n = medium.ofdm().num_used();
        const std::size_t repeats = system.sounding_repeats();
        const double var = medium.estimate_noise_variance(link);
        const control::BatchScoreFn score =
            [&](const Config& c, press::util::Rng& crng,
                control::EvalScratch& s) {
                cache.response_into(medium, 0, link, array_id, c, s.h);
                s.raw_re.resize(repeats * n);
                s.raw_im.resize(repeats * n);
                s.mean_re.resize(n);
                s.mean_im.resize(n);
                s.noise_var.resize(n);
                for (std::size_t r = 0; r < repeats; ++r)
                    for (std::size_t k = 0; k < n; ++k) {
                        const std::complex<double> w =
                            crng.complex_gaussian(var);
                        s.raw_re[r * n + k] = s.h.re[k] + w.real();
                        s.raw_im[r * n + k] = s.h.im[k] + w.imag();
                    }
                kernels::ltf_mean_var(d, s.raw_re.data(), s.raw_im.data(),
                                      repeats, n, s.mean_re.data(),
                                      s.mean_im.data(), s.noise_var.data());
                return kernels::snr_db_min(d, s.mean_re.data(),
                                           s.mean_im.data(),
                                           s.noise_var.data(), n,
                                           press::phy::kSnrCapDb,
                                           press::phy::kSnrFloorDb);
            };
        const std::vector<Config> batch(configs.begin(), configs.begin() + 32);
        control::BatchEvaluator one(score, 7, 1);
        control::BatchEvaluator two(score, 7, 2);
        const int batch_reps = scene.heavy ? 20 : 200;
        double t1 = 0.0, t2 = 0.0;
        // Interleave the two pools so drift on the host hits both alike.
        std::vector<double> ratios;
        for (int round = 0; round < 7; ++round) {
            t1 = time_us([&] { (void)one.evaluate(batch); }, batch_reps, 1);
            t2 = time_us([&] { (void)two.evaluate(batch); }, batch_reps, 1);
            ratios.push_back(t1 / std::max(t2, 1e-9));
        }
        if (one.evaluate(batch) != two.evaluate(batch))
            fail("1- and 2-thread batch scores differ");
        report.add("batch.speedup_2t", quantile(ratios, 0.5), "x");
    }
}


CacheMarks cache_marks(const core::System& system) {
    return {system.cache_stats(), system.multilink_cache_stats()};
}

void report_traced(const Tracer& tracer, std::int64_t traced_wall_ns,
                   const SearchCounts& counts, const core::System& system,
                   const CacheMarks& marks, double plain_us, double traced_us,
                   std::uint64_t failed, std::uint64_t attempted,
                   Report& report) {
    const auto p50_self = [&](const char* span) {
        return quantile(tracer.per_request_self_us(span), 0.5);
    };
    const double calls = static_cast<double>(std::max<std::uint64_t>(
        1, counts.calls));
    const double candidates = static_cast<double>(counts.candidates);
    const std::vector<double> eval_us = tracer.per_request_total_us("batch.eval");
    double eval_total_us = 0.0;
    for (double v : eval_us) eval_total_us += v;
    report.add("engine.optimize_us",
               quantile(tracer.per_request_total_us("engine.optimize"), 0.5),
               "us");
    report.add("system.self_us", p50_self("engine.optimize"), "us");
    report.add("search.policy_self_us", p50_self("search"), "us");
    report.add("search.evals", candidates / calls, "count");
    report.add("search.batches", static_cast<double>(counts.batches) / calls,
               "count");
    report.add("search.cands_per_batch",
               candidates / std::max(1.0, static_cast<double>(counts.batches)),
               "count");
    report.add("batch.eval_us", quantile(eval_us, 0.5), "us");
    report.add("batch.eval_us_per_cand",
               eval_total_us / std::max(1.0, candidates), "us");

    const core::LinkCache::Stats link = system.cache_stats();
    const double hits = static_cast<double>(link.hits - marks.link.hits);
    const double misses =
        static_cast<double>(link.misses - marks.link.misses);
    report.add("link_cache.hits", hits, "count");
    report.add("link_cache.misses", misses, "count");
    report.add("link_cache.hit_ratio", hits / std::max(1.0, hits + misses),
               "ratio");
    const core::MultiLinkCache::Stats multi = system.multilink_cache_stats();
    report.add("multilink_cache.rebuilds",
               static_cast<double>(multi.rebuilds - marks.multi.rebuilds),
               "count");
    report.add("multilink_cache.shared_basis_hits",
               static_cast<double>(multi.hits - marks.multi.hits), "count");

    report.add("trace.overhead_pct", (traced_us - plain_us) / plain_us * 100.0,
               "%");
    report.add("trace.unattributed_pct",
               tracer.print_layer_table(traced_wall_ns), "%");
    report.add("failed_frac",
               static_cast<double>(failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, attempted)),
               "ratio");
}

}  // namespace pressbench
