// Ablation of search strategies under measurement budgets (paper Section
// 4.2: "With N PRESS elements, each having M possible reflection
// coefficients, enumerating the M^N possibilities in the search space for
// the optimal configuration becomes impractical").
//
// An 8-element SP4T array has 4^8 = 65536 configurations; within realistic
// coherence-time budgets only a handful of trials fit, so strategy
// matters. The second table prices the trials with the control-plane
// model: the paper's prototype pace (~5 s per 64-config sweep) versus a
// deployment-grade control plane, against the coherence times the paper
// quotes (~80 ms quasi-static, ~6 ms at walking pace).
#include <benchmark/benchmark.h>

#include <iostream>

#include "control/controller.hpp"
#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "util/stats.hpp"

namespace {

using namespace press;

core::LinkScenario make_big_scenario(std::uint64_t seed) {
    core::StudyParams p;
    p.num_elements = 8;
    return core::make_link_scenario(seed, /*line_of_sight=*/false, p);
}

void run_ablation() {
    std::ostream& os = std::cout;
    os << "=== Ablation: search strategies on an 8-element array (4^8 = "
          "65536 configs) ===\n\n";

    const std::size_t budgets[] = {16, 64, 256, 1024};
    std::vector<std::vector<std::string>> rows;
    for (const auto& searcher : control::all_searchers()) {
        std::vector<std::string> row{searcher->name()};
        for (std::size_t budget : budgets) {
            double acc = 0.0;
            const int seeds = 3;
            for (int s = 0; s < seeds; ++s) {
                core::LinkScenario scenario = make_big_scenario(120 + s);
                util::Rng rng(4000 + s);
                const surface::ConfigSpace space =
                    scenario.system.medium()
                        .array(scenario.array_id)
                        .config_space();
                const control::EvalFn eval =
                    [&](const surface::Config& c) {
                        scenario.system.apply(scenario.array_id, c);
                        return util::min_value(scenario.system.measured_snr_db(
                            scenario.link_id, rng));
                    };
                acc += searcher->search(space, eval, budget, rng).best_score /
                       seeds;
            }
            row.push_back(core::fmt(acc, 2));
        }
        rows.push_back(std::move(row));
    }
    core::print_table(os,
                      {"strategy", "best min-SNR @16 evals", "@64", "@256",
                       "@1024"},
                      rows);

    os << "\n=== Trials affordable within the coherence time ===\n\n";
    core::LinkScenario scenario = make_big_scenario(120);
    const surface::ConfigSpace space =
        scenario.system.medium().array(scenario.array_id).config_space();
    const auto count_trials = [&](const control::ControlPlaneModel& model,
                                  double budget_s) {
        control::Controller controller(
            model, [](const surface::Config&) { return true; },
            []() { return control::Observation{{{0.0}}, {}}; }, 1,
            scenario.system.medium().ofdm().num_used());
        return controller.trials_within(space, budget_s);
    };
    const double coherence_budgets[] = {6e-3, 80e-3, 5.0};
    const char* budget_names[] = {"6 ms (walking)", "80 ms (quasi-static)",
                                  "5 s (prototype sweep)"};
    std::vector<std::vector<std::string>> trows;
    for (int b = 0; b < 3; ++b) {
        trows.push_back(
            {budget_names[b],
             std::to_string(count_trials(control::ControlPlaneModel::prototype(),
                                         coherence_budgets[b])),
             std::to_string(count_trials(control::ControlPlaneModel::fast(),
                                         coherence_budgets[b]))});
    }
    core::print_table(
        os, {"coherence budget", "prototype control plane", "fast control plane"},
        trows);
    os << "\nShape: the prototype pace cannot finish even a 64-config sweep "
          "inside any coherence window (the paper needed ~5 s); a\n"
          "deployment-grade control plane fits tens-to-hundreds of trials, "
          "and budget-aware heuristics recover most of the exhaustive "
          "optimum.\n\n";
}

void BM_SearcherAtBudget(benchmark::State& state) {
    const auto searchers = control::all_searchers();
    const auto& searcher = *searchers[static_cast<std::size_t>(
        state.range(0))];
    core::LinkScenario scenario = make_big_scenario(120);
    util::Rng rng(4000);
    const surface::ConfigSpace space =
        scenario.system.medium().array(scenario.array_id).config_space();
    const control::EvalFn eval = [&](const surface::Config& c) {
        scenario.system.apply(scenario.array_id, c);
        return util::min_value(
            scenario.system.measured_snr_db(scenario.link_id, rng));
    };
    for (auto _ : state) {
        auto result = searcher.search(space, eval, 64, rng);
        benchmark::DoNotOptimize(result.best_score);
    }
}
BENCHMARK(BM_SearcherAtBudget)
    ->DenseRange(0, static_cast<int>(control::all_searchers().size()) - 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    run_ablation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
