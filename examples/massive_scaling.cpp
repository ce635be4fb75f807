// Massive-element scaling tour: optimize a 1,024-element wall panel —
// the RFocus regime (arXiv:1905.05130) scaled into the study room —
// end to end in seconds.
//
//   $ ./build/examples/massive_scaling
//
// At three elements the paper's prototype could sweep its whole config
// space; at 1,024 two-state elements the space holds 2^1024 points and
// even one greedy coordinate sweep costs n evaluations. This example
// shows the machinery that keeps the regime tractable:
//
//   - core::make_massive_scenario builds the panel scene,
//   - core::LinkCache folds the per-element responses into a blocked
//     SoA basis (one contiguous [re | im] row per element state),
//   - System::optimize_fast drives the sharded BatchEvaluator, and
//   - control::MajorityVoteSearcher extracts one bit of information per
//     element from every batch of random probes, so its budget is set by
//     the probe count per round, not by n.
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

    constexpr std::size_t kElements = 1024;
    core::LinkScenario scenario = core::make_massive_scenario(
        kElements, /*seed=*/7001);
    const sdr::Medium& medium = scenario.system.medium();
    std::printf("scene: %zu two-state elements, %zu subcarriers\n",
                kElements, medium.ofdm().num_used());

    // The factored basis the searches run on: warm once, report the
    // footprint the tiled layout keeps bandwidth-bound.
    core::LinkCache cache;
    cache.warm(medium, scenario.link_id,
               scenario.system.link(scenario.link_id));
    const core::StackedBasis& basis = cache.basis(scenario.link_id);
    std::printf("basis: %zu rows x %zu-wide [re|im] blocks = %.1f MiB\n",
                basis.rows(scenario.array_id), basis.stride(),
                static_cast<double>(basis.table_bytes(scenario.array_id)) /
                    (1024.0 * 1024.0));

    // Price trials off the fast control-plane model so the two searchers
    // get explicit evaluation budgets: majority-vote runs on a quarter
    // of greedy's.
    const control::ControlPlaneModel plane =
        control::ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.config.assign(kElements, 0);
    const double trial_s = plane.config_trial_time_s(
        probe, /*num_links=*/1, medium.ofdm().num_used());
    const control::MinSnrObjective objective(0);

    const auto run = [&](const control::Searcher& searcher,
                         double budget_evals) {
        util::Rng rng(2024);
        const auto outcome = scenario.system.optimize_fast(
            scenario.array_id, objective, searcher, plane,
            budget_evals * trial_s, rng);
        std::printf(
            "%-16s %5zu evals -> min-SNR %6.2f dB  (%.2f s wall)\n",
            searcher.name().c_str(), outcome.search.evaluations,
            outcome.search.best_score_remeasured,
            outcome.search.compute_s);
        return outcome.search.best_score_remeasured;
    };

    const double greedy = run(control::GreedyCoordinateDescent(), 4096.0);
    const double vote = run(control::MajorityVoteSearcher(), 1024.0);
    std::printf("majority-vote reached %.0f%% of greedy's objective on a "
                "quarter of the budget\n",
                greedy > 0.0 ? vote / greedy * 100.0 : 100.0);
    return 0;
}
