// Wideband Wi-Fi 6E tour: optimize a 996-tone 160 MHz link per-RU —
// the regime where per-eval cost is set by the subcarrier axis, not the
// element count.
//
//   $ ./build/examples/wideband
//
// At 52 tones the factored-cache evaluation is row-gather bound; at 996
// (Wi-Fi 6E 160 MHz) and 1960 (Wi-Fi 7 320 MHz) used tones the tone
// axis dominates every kernel. This example shows the wideband
// machinery (DESIGN.md §15):
//
//   - phy::OfdmParams::wifi6e_160 builds the 2048-point 6 GHz
//     numerology and core::make_wideband_scenario the scene around it,
//   - phy::RuMask partitions the used tones into RUs and punctures the
//     incumbent-occupied ones (preamble puncturing),
//   - control::MaskedSnrObjective scores only the active tones, and
//     System::optimize_fast bounds the basis accumulation and the
//     sounding to the subcarrier tiles the mask intersects.
#include <cstdio>

#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/link_cache.hpp"
#include "core/scenarios.hpp"
#include "core/system.hpp"
#include "util/rng.hpp"

int main() {
    using namespace press;

    core::WidebandScenario scenario =
        core::make_wideband_scenario(/*seed=*/8101);
    const sdr::Medium& medium = scenario.system.medium();
    const std::size_t num_used = medium.ofdm().num_used();
    std::printf("scene: %zu used tones at %.3f GHz, %zu-element panel\n",
                num_used, medium.ofdm().carrier_hz() / 1e9,
                medium.array(scenario.array_id).size());
    std::printf("mask: %zu RUs, %zu of %zu tones active\n",
                scenario.mask.num_ru(), scenario.mask.num_active(),
                scenario.mask.num_used());

    // The factored basis the searches run on: at 996 tones the rows are
    // wide enough that the blocked tiles — not the row count — set the
    // footprint and the per-candidate cost.
    core::LinkCache cache;
    cache.warm(medium, scenario.link_id,
               scenario.system.link(scenario.link_id));
    const core::StackedBasis& basis = cache.basis(scenario.link_id);
    std::printf("basis: %zu rows x %zu-wide [re|im] blocks = %.1f MiB\n",
                basis.rows(scenario.array_id), basis.stride(),
                static_cast<double>(basis.table_bytes(scenario.array_id)) /
                    (1024.0 * 1024.0));

    const control::ControlPlaneModel plane =
        control::ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.config.assign(medium.array(scenario.array_id).size(), 0);
    const double trial_s = plane.config_trial_time_s(
        probe, /*num_links=*/1, num_used);

    // Masked objective: min SNR over the active tones only. The fused
    // path touches only the basis tiles the mask intersects.
    const control::MaskedSnrObjective masked(
        scenario.mask, control::Reduce::kMinSnr, scenario.link_id);
    // Unmasked twin for comparison: same reduction over all tones.
    const control::MinSnrObjective full(scenario.link_id);

    const auto run = [&](const control::Objective& objective,
                         const char* label) {
        util::Rng rng(2024);
        const auto outcome = scenario.system.optimize_fast(
            scenario.array_id, objective, control::GreedyCoordinateDescent(),
            plane, 2048.0 * trial_s, rng);
        std::printf(
            "%-12s %5zu evals -> min-SNR %6.2f dB  (%.2f s wall)\n", label,
            outcome.search.evaluations,
            outcome.search.best_score_remeasured, outcome.search.compute_s);
    };

    run(masked, "masked");
    run(full, "full-band");
    return 0;
}
