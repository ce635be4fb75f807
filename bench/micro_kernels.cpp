// Microbenchmarks of the library's hot kernels: FFTs, SVD, ray tracing,
// channel synthesis, frame processing and the control-plane codec. These
// are the costs a real-time PRESS controller pays inside the coherence
// window, so their absolute numbers matter to the Section-2 timing
// argument.
#include <benchmark/benchmark.h>

#include "control/message.hpp"
#include "core/link_cache.hpp"
#include "core/scenarios.hpp"
#include "em/channel.hpp"
#include "phy/frame.hpp"
#include "phy/ru.hpp"
#include "util/fft.hpp"
#include "util/fft_plan.hpp"
#include "util/kernels.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace press;

util::CVec random_cvec(std::size_t n, util::Rng& rng) {
    util::CVec v(n);
    for (auto& x : v) x = rng.complex_gaussian(1.0);
    return v;
}

void BM_Fft(benchmark::State& state) {
    util::Rng rng(1);
    util::CVec x = random_cvec(static_cast<std::size_t>(state.range(0)), rng);
    for (auto _ : state) {
        auto y = util::fft(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(128)->Arg(1024)->Arg(2048)->Arg(4096);

void BM_FftBluestein(benchmark::State& state) {
    util::Rng rng(1);
    // Non-powers-of-two: 100 (the historical case) and 996 (the Wi-Fi 6E
    // used-tone count, whose Bluestein convolution runs at 2048).
    util::CVec x =
        random_cvec(static_cast<std::size_t>(state.range(0)), rng);
    for (auto _ : state) {
        auto y = util::fft(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FftBluestein)->Arg(100)->Arg(996);

// Planned execution against the process-wide FftPlan cache: all twiddle,
// bit-reversal and Bluestein chirp setup hoisted into the plan, output
// and scratch reused — the steady-state transform cost at the wideband
// sizes (996 exercises the planned Bluestein path; 64/2048/4096 the
// planned radix-2 path). Compare with BM_Fft/BM_FftBluestein at the same
// length for the per-call setup the plan removes.
void BM_FftPlanForward(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const util::FftPlan& plan = util::plan_for(n);
    util::Rng rng(1);
    const util::CVec x = random_cvec(n, rng);
    util::CVec out;
    util::FftScratch scratch;
    plan.forward(x, out, scratch);  // size the output and scratch once
    for (auto _ : state) {
        plan.forward(x, out, scratch);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_FftPlanForward)->Arg(64)->Arg(996)->Arg(2048)->Arg(4096);

void BM_SingularValues(benchmark::State& state) {
    util::Rng rng(2);
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    util::Matrix m(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            m.at(r, c) = rng.complex_gaussian(1.0);
    for (auto _ : state) {
        auto sv = m.singular_values();
        benchmark::DoNotOptimize(sv.data());
    }
}
BENCHMARK(BM_SingularValues)->Arg(2)->Arg(4)->Arg(8);

void BM_EnvironmentTrace(benchmark::State& state) {
    core::StudyParams p;
    p.wall_reflection_order = static_cast<int>(state.range(0));
    core::LinkScenario scenario = core::make_link_scenario(100, false, p);
    const auto& medium = scenario.system.medium();
    const auto& link = scenario.system.link(0);
    for (auto _ : state) {
        auto paths = medium.environment().trace(
            link.tx, link.rx, medium.ofdm().carrier_hz());
        benchmark::DoNotOptimize(paths.data());
    }
}
BENCHMARK(BM_EnvironmentTrace)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMicrosecond);

void BM_FrequencyResponse(benchmark::State& state) {
    core::LinkScenario scenario = core::make_link_scenario(100, false);
    const auto& medium = scenario.system.medium();
    const auto paths = medium.resolve_paths(scenario.system.link(0));
    const auto freqs = medium.ofdm().used_frequencies_hz();
    for (auto _ : state) {
        auto h = em::frequency_response(paths, freqs);
        benchmark::DoNotOptimize(h.data());
    }
}
BENCHMARK(BM_FrequencyResponse)->Unit(benchmark::kMicrosecond);

void BM_ImpulseResponse(benchmark::State& state) {
    core::LinkScenario scenario = core::make_link_scenario(100, false);
    const auto& medium = scenario.system.medium();
    const auto paths = medium.resolve_paths(scenario.system.link(0));
    for (auto _ : state) {
        auto h = em::impulse_response(paths, medium.ofdm().carrier_hz(),
                                      medium.ofdm().sample_rate_hz(), 64);
        benchmark::DoNotOptimize(h.data());
    }
}
BENCHMARK(BM_ImpulseResponse)->Unit(benchmark::kMicrosecond);

void BM_FrameBuildParse(benchmark::State& state) {
    const phy::OfdmParams params = phy::OfdmParams::wifi20();
    phy::FrameSpec spec;
    spec.num_ltf = 4;
    spec.num_data = 4;
    util::Rng rng(3);
    for (auto _ : state) {
        auto tx = phy::build_frame(params, spec, rng);
        auto rx = phy::parse_frame(params, spec, tx.samples);
        benchmark::DoNotOptimize(rx.ltf_estimates.data());
    }
}
BENCHMARK(BM_FrameBuildParse)->Unit(benchmark::kMicrosecond);

void BM_MessageRoundtrip(benchmark::State& state) {
    control::SetConfig msg;
    msg.array_id = 3;
    msg.config = {0, 1, 2, 3, 0, 1, 2, 3};
    for (auto _ : state) {
        auto bytes = control::encode(control::Message{msg}, 42);
        auto decoded = control::decode(bytes);
        benchmark::DoNotOptimize(decoded.seq);
    }
}
BENCHMARK(BM_MessageRoundtrip);

void BM_Crc16(benchmark::State& state) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                   0xA5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(control::crc16(data));
    }
}
BENCHMARK(BM_Crc16)->Arg(64)->Arg(1024);

// The factored-cache evaluation path: recombining H = H_static + B.g(c)
// (a sparse complex GEMV over element rows) versus re-synthesizing the
// CFR from a fresh path resolve — the per-candidate cost a configuration
// search actually pays, with `num_elements` as the row count knob.
void BM_CachedRecombination(benchmark::State& state) {
    core::StudyParams params;
    params.num_elements = static_cast<int>(state.range(0));
    core::LinkScenario scenario =
        core::make_link_scenario(1, false, params);
    const sdr::Medium& medium = scenario.system.medium();
    const sdr::Link& link = scenario.system.link(scenario.link_id);
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    core::LinkCache cache;
    cache.warm(medium, scenario.link_id, link);
    // Cycle candidates odometer-style: space.size() overflows 64 bits at
    // 64 four-state elements, so never enumerate by flat index here.
    surface::Config c(space.num_elements(), 0);
    util::kernels::SplitVec h;
    for (auto _ : state) {
        for (std::size_t e = 0; e < c.size(); ++e) {
            if (++c[e] < space.radices()[e]) break;
            c[e] = 0;
        }
        cache.response_into(medium, scenario.link_id, link,
                            scenario.array_id, c, h);
        benchmark::DoNotOptimize(h.re.data());
    }
}
BENCHMARK(BM_CachedRecombination)->Arg(3)->Arg(16)->Arg(64);

void BM_UncachedResynthesis(benchmark::State& state) {
    core::StudyParams params;
    params.num_elements = static_cast<int>(state.range(0));
    core::LinkScenario scenario =
        core::make_link_scenario(1, false, params);
    const sdr::Medium& medium = scenario.system.medium();
    const sdr::Link& link = scenario.system.link(scenario.link_id);
    const std::vector<double> freqs = medium.ofdm().used_frequencies_hz();
    for (auto _ : state) {
        auto h = em::frequency_response(medium.resolve_paths(link), freqs);
        benchmark::DoNotOptimize(h.data());
    }
}
BENCHMARK(BM_UncachedResynthesis)
    ->Arg(3)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// The SoA fast path the batch workers actually run: response_into() into
// a reused split-complex scratch — same recombination as
// BM_CachedRecombination minus the per-call allocation and interleave.
void BM_ResponseInto(benchmark::State& state) {
    core::StudyParams params;
    params.num_elements = static_cast<int>(state.range(0));
    core::LinkScenario scenario =
        core::make_link_scenario(1, false, params);
    const sdr::Medium& medium = scenario.system.medium();
    const sdr::Link& link = scenario.system.link(scenario.link_id);
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    core::LinkCache cache;
    cache.warm(medium, scenario.link_id, link);
    surface::Config c(space.num_elements(), 0);
    util::kernels::SplitVec h;
    for (auto _ : state) {
        for (std::size_t e = 0; e < c.size(); ++e) {
            if (++c[e] < space.radices()[e]) break;
            c[e] = 0;
        }
        cache.response_into(medium, scenario.link_id, link,
                            scenario.array_id, c, h);
        benchmark::DoNotOptimize(h.re.data());
        benchmark::DoNotOptimize(h.im.data());
    }
}
BENCHMARK(BM_ResponseInto)->Arg(3)->Arg(16)->Arg(64);

// One coordinate-sweep candidate on the incremental delta path: copy the
// cached base response and add the swept element's row — O(1) rows
// instead of O(elements), which is where the sweep's 5x comes from.
void BM_DeltaCandidate(benchmark::State& state) {
    core::StudyParams params;
    params.num_elements = static_cast<int>(state.range(0));
    core::LinkScenario scenario =
        core::make_link_scenario(1, false, params);
    const sdr::Medium& medium = scenario.system.medium();
    const sdr::Link& link = scenario.system.link(scenario.link_id);
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();
    core::LinkCache cache;
    cache.warm(medium, scenario.link_id, link);
    const surface::Config base(space.num_elements(), 0);
    util::kernels::SplitVec base_h, h;
    cache.response_base_into(medium, scenario.link_id, link,
                             scenario.array_id, base, 0, base_h);
    h.resize(base_h.size());
    int s = 0;
    for (auto _ : state) {
        s = (s + 1) % space.radices()[0];
        util::kernels::copy(util::kernels::active(), base_h.re.data(),
                            base_h.im.data(), h.re.data(), h.im.data(),
                            base_h.size());
        cache.basis(scenario.link_id)
            .add_row(scenario.array_id, 0, s, nullptr, 0, h);
        benchmark::DoNotOptimize(h.re.data());
    }
}
BENCHMARK(BM_DeltaCandidate)->Arg(16)->Arg(64);

// Raw kernel throughput per dispatch flavor (0 = scalar, 1 = native):
// the row gather-accumulate at a realistic subcarrier count and row set.
void BM_GatherAccumulate(benchmark::State& state) {
    const auto d = state.range(0) == 0 ? util::kernels::Dispatch::kScalar
                                       : util::kernels::Dispatch::kNative;
    const std::size_t n = 52;
    const std::size_t num_rows = static_cast<std::size_t>(state.range(1));
    util::Rng rng(5);
    std::vector<double> table_re(num_rows * n), table_im(num_rows * n);
    for (auto& x : table_re) x = rng.uniform(-1.0, 1.0);
    for (auto& x : table_im) x = rng.uniform(-1.0, 1.0);
    std::vector<std::size_t> rows(num_rows);
    for (std::size_t r = 0; r < num_rows; ++r) rows[r] = r;
    std::vector<double> dst_re(n, 0.0), dst_im(n, 0.0);
    for (auto _ : state) {
        util::kernels::gather_accumulate(d, table_re.data(),
                                         table_im.data(), rows.data(),
                                         num_rows, dst_re.data(),
                                         dst_im.data(), n);
        benchmark::DoNotOptimize(dst_re.data());
    }
}
BENCHMARK(BM_GatherAccumulate)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 64})
    ->Args({1, 64});

// Helper for the masked-kernel benches: the bench's RU-mask shapes at a
// given tone count. shape 0 = full mask (one aligned span at offset 0);
// shape 1 = 8 uniform RUs with RUs 2 and 5 punctured (ragged,
// non-lane-aligned span offsets — the preamble-puncturing case).
phy::RuMask bench_mask(std::size_t n, int shape) {
    if (shape == 0) return phy::RuMask::full(n);
    return phy::RuMask::uniform(n, 8).punctured({2, 5});
}

// Masked row accumulate over the mask's active ranges — the tile-bounded
// delta sweep's row-add. Args: {dispatch, n, shape} with dispatch 0 =
// scalar / 1 = native and shape as in bench_mask (aligned full span vs
// ragged punctured spans), at the narrowband and wideband tone counts.
void BM_MaskedAccumulate(benchmark::State& state) {
    const auto d = state.range(0) == 0 ? util::kernels::Dispatch::kScalar
                                       : util::kernels::Dispatch::kNative;
    const std::size_t n = static_cast<std::size_t>(state.range(1));
    const phy::RuMask mask = bench_mask(n, static_cast<int>(state.range(2)));
    std::vector<util::kernels::IndexRange> ranges;
    for (const phy::RuRange& r : mask.active_ranges())
        ranges.push_back({r.first, r.last - r.first});
    util::Rng rng(11);
    std::vector<double> row_re(n), row_im(n), dst_re(n, 0.0), dst_im(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        row_re[k] = rng.uniform(-1.0, 1.0);
        row_im[k] = rng.uniform(-1.0, 1.0);
    }
    for (auto _ : state) {
        util::kernels::masked_accumulate(d, row_re.data(), row_im.data(),
                                         dst_re.data(), dst_im.data(),
                                         ranges.data(), ranges.size());
        benchmark::DoNotOptimize(dst_re.data());
    }
}
BENCHMARK(BM_MaskedAccumulate)
    ->Args({0, 64, 1})
    ->Args({1, 64, 1})
    ->Args({0, 996, 0})
    ->Args({1, 996, 0})
    ->Args({0, 996, 1})
    ->Args({1, 996, 1})
    ->Args({0, 2048, 1})
    ->Args({1, 2048, 1})
    ->Args({0, 4096, 1})
    ->Args({1, 4096, 1});

// The fused coordinate delta (dst = base + row in one pass) against the
// same spans — compare with BM_MaskedAccumulate plus a copy for the
// traffic the fusion removes. Args as in BM_MaskedAccumulate.
void BM_MaskedCopyAccumulate(benchmark::State& state) {
    const auto d = state.range(0) == 0 ? util::kernels::Dispatch::kScalar
                                       : util::kernels::Dispatch::kNative;
    const std::size_t n = static_cast<std::size_t>(state.range(1));
    const phy::RuMask mask = bench_mask(n, static_cast<int>(state.range(2)));
    std::vector<util::kernels::IndexRange> ranges;
    for (const phy::RuRange& r : mask.active_ranges())
        ranges.push_back({r.first, r.last - r.first});
    util::Rng rng(11);
    std::vector<double> base_re(n), base_im(n), row_re(n), row_im(n);
    std::vector<double> dst_re(n, 0.0), dst_im(n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
        base_re[k] = rng.uniform(-1.0, 1.0);
        base_im[k] = rng.uniform(-1.0, 1.0);
        row_re[k] = rng.uniform(-1.0, 1.0);
        row_im[k] = rng.uniform(-1.0, 1.0);
    }
    for (auto _ : state) {
        util::kernels::masked_copy_accumulate(
            d, base_re.data(), base_im.data(), row_re.data(), row_im.data(),
            dst_re.data(), dst_im.data(), ranges.data(), ranges.size());
        benchmark::DoNotOptimize(dst_re.data());
    }
}
BENCHMARK(BM_MaskedCopyAccumulate)
    ->Args({0, 64, 1})
    ->Args({1, 64, 1})
    ->Args({0, 996, 0})
    ->Args({1, 996, 0})
    ->Args({0, 996, 1})
    ->Args({1, 996, 1})
    ->Args({0, 2048, 1})
    ->Args({1, 2048, 1})
    ->Args({0, 4096, 1})
    ->Args({1, 4096, 1});

// The masked fused min-SNR reduction through the mask's dense index
// list — the scoring tail of a MaskedSnrObjective candidate. Args as in
// BM_MaskedAccumulate (shape 0 reduces every tone via the list).
void BM_MaskedSnrDbMin(benchmark::State& state) {
    const auto d = state.range(0) == 0 ? util::kernels::Dispatch::kScalar
                                       : util::kernels::Dispatch::kNative;
    const std::size_t n = static_cast<std::size_t>(state.range(1));
    const phy::RuMask mask = bench_mask(n, static_cast<int>(state.range(2)));
    const std::vector<std::size_t>& idx = mask.active_indices();
    util::Rng rng(13);
    std::vector<double> mean_re(n), mean_im(n), noise_var(n);
    for (std::size_t k = 0; k < n; ++k) {
        mean_re[k] = rng.uniform(-1.0, 1.0);
        mean_im[k] = rng.uniform(-1.0, 1.0);
        noise_var[k] = rng.uniform(1e-9, 1e-6);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(util::kernels::masked_snr_db_min(
            d, mean_re.data(), mean_im.data(), noise_var.data(), idx.data(),
            idx.size(), 60.0, 0.0));
    }
}
BENCHMARK(BM_MaskedSnrDbMin)
    ->Args({0, 64, 1})
    ->Args({1, 64, 1})
    ->Args({0, 996, 0})
    ->Args({1, 996, 0})
    ->Args({0, 996, 1})
    ->Args({1, 996, 1})
    ->Args({0, 4096, 1})
    ->Args({1, 4096, 1});

// The fused single-link score: sounding draws + LTF combining + log-SNR
// min, straight from a split response — the entire per-candidate cost of
// a fused MinSnr objective minus the response recombination.
void BM_FusedSoundAndScore(benchmark::State& state) {
    const auto d = state.range(0) == 0 ? util::kernels::Dispatch::kScalar
                                       : util::kernels::Dispatch::kNative;
    const std::size_t n = 52;
    const std::size_t repeats = 4;
    util::Rng rng(7);
    std::vector<double> h_re(n), h_im(n);
    for (std::size_t k = 0; k < n; ++k) {
        h_re[k] = rng.uniform(-1.0, 1.0);
        h_im[k] = rng.uniform(-1.0, 1.0);
    }
    std::vector<double> raw_re(repeats * n), raw_im(repeats * n);
    std::vector<double> mean_re(n), mean_im(n), noise_var(n);
    const double var = 1e-6;
    for (auto _ : state) {
        for (std::size_t r = 0; r < repeats; ++r)
            for (std::size_t k = 0; k < n; ++k) {
                const auto w = rng.complex_gaussian(var);
                raw_re[r * n + k] = h_re[k] + w.real();
                raw_im[r * n + k] = h_im[k] + w.imag();
            }
        util::kernels::ltf_mean_var(d, raw_re.data(), raw_im.data(),
                                    repeats, n, mean_re.data(),
                                    mean_im.data(), noise_var.data());
        benchmark::DoNotOptimize(util::kernels::snr_db_min(
            d, mean_re.data(), mean_im.data(), noise_var.data(), n, 60.0,
            0.0));
    }
}
BENCHMARK(BM_FusedSoundAndScore)->Arg(0)->Arg(1);

void BM_CacheRebuild(benchmark::State& state) {
    core::StudyParams params;
    params.num_elements = static_cast<int>(state.range(0));
    core::LinkScenario scenario =
        core::make_link_scenario(1, false, params);
    const sdr::Medium& medium = scenario.system.medium();
    const sdr::Link& link = scenario.system.link(scenario.link_id);
    core::LinkCache cache;
    for (auto _ : state) {
        cache.invalidate();
        cache.warm(medium, scenario.link_id, link);
        benchmark::DoNotOptimize(cache.stats().misses);
    }
}
BENCHMARK(BM_CacheRebuild)->Arg(3)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
