// Network harmonization at building scale: the paper's Figure-2 vision
// grown to a multi-user scene.
//
// Four APs each serve eight clients — 32 links — through one shared
// 16-element field. A single configuration must serve everyone at once,
// so "best" stops being a number and becomes a policy choice. This
// example runs the same scene under the two canonical composite
// objectives (control::MultiLinkProblem, which System::optimize_fast
// scores through the shared multi-link basis) and prints the
// Pareto-style trade between them:
//
//   weighted-sum  maximize the aggregate mean SNR: highest total
//                 capacity, free to starve a straggler link.
//   max-min       maximize the worst link's mean SNR: harmonization /
//                 fairness, pays aggregate for the tail.
//
// docs/OBJECTIVES.md documents the combinator algebra; EXPERIMENTS.md
// cross-links the fig-harmonization bench scene that tracks this path.
#include <algorithm>
#include <iostream>
#include <vector>

#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/report.hpp"
#include "core/scenarios.hpp"
#include "util/stats.hpp"

namespace {

/// Per-link mean SNR (dB) under the currently applied configuration.
std::vector<double> link_means(press::core::System& system,
                               press::util::Rng& rng) {
    const press::control::Observation obs = system.observe(rng);
    std::vector<double> means;
    means.reserve(obs.link_snr_db.size());
    for (const std::vector<double>& snr : obs.link_snr_db)
        means.push_back(press::util::mean(snr));
    return means;
}

double aggregate(const std::vector<double>& means) {
    return press::util::mean(means);
}

double worst(const std::vector<double>& means) {
    return press::util::min_value(means);
}

}  // namespace

int main() {
    using namespace press;

    core::MultiLinkScenario scenario = core::make_multi_link_scenario(302);
    const std::size_t n = scenario.num_links;
    std::cout << scenario.num_aps << " APs x " << scenario.clients_per_ap
              << " clients = " << n << " links over one "
              << scenario.system.medium()
                     .array(scenario.array_id)
                     .size()
              << "-element field\n\n";

    // Both policies get the same simulated coherence-time budget, priced
    // for a 32-link sounding cycle.
    const control::ControlPlaneModel plane = control::ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.config.assign(
        scenario.system.medium().array(scenario.array_id).size(), 0);
    const double budget_s =
        256.0 * plane.config_trial_time_s(
                    probe, n, scenario.system.medium().ofdm().num_used());

    // Both presets expand to a control::MultiLinkProblem — the fluent
    // builder (serve/qos_floor/null + weighted_sum/max_min) composes the
    // same terms by hand when a scene needs mixed policies.
    const auto sum_objective = control::make_sum_mean_objective(n);
    const auto maxmin_objective = control::make_max_min_objective(n);

    std::vector<std::vector<std::string>> rows;
    const auto run_policy = [&](const char* name,
                                const control::Objective* objective) {
        core::MultiLinkScenario fresh = core::make_multi_link_scenario(302);
        util::Rng rng(5);
        std::size_t evals = 0;
        if (objective != nullptr) {
            const auto outcome = fresh.system.optimize_fast(
                fresh.array_id, *objective,
                control::GreedyCoordinateDescent(), plane, budget_s, rng);
            evals = outcome.search.evaluations;
        }
        std::vector<double> means = link_means(fresh.system, rng);
        std::vector<double> sorted = means;
        std::sort(sorted.begin(), sorted.end());
        rows.push_back({name, core::fmt(aggregate(means), 1),
                        core::fmt(worst(means), 1),
                        core::sparkline(sorted),
                        std::to_string(evals)});
    };
    run_policy("baseline (all elements state 0)", nullptr);
    run_policy("weighted sum (aggregate capacity)", sum_objective.get());
    run_policy("max-min (harmonization/fairness)", maxmin_objective.get());

    core::print_table(std::cout,
                      {"policy", "aggregate mean (dB)", "worst link (dB)",
                       "links sorted worst->best", "trials"},
                      rows);
    std::cout << "\nThe Pareto trade in one table: the weighted sum buys "
                 "aggregate capacity,\nmax-min lifts the worst link. Both "
                 "score all " << n
              << " links per candidate through\nthe shared basis — one "
                 "row selection per AP, not per link "
                 "(docs/OBJECTIVES.md).\n";
    return 0;
}
