// Determinism tests for the parallel batch evaluator and the batched
// searchers: identical results for 1, 2 and 8 worker threads, PRESS_THREADS
// resolution, no duplicate evaluations from the memoizing greedy, and
// System::optimize_fast agreeing with itself across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "control/batch.hpp"
#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/scenarios.hpp"
#include "core/system.hpp"
#include "press/config.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace press::control {
namespace {

/// A deterministic-but-nontrivial score: mixes the configuration with two
/// draws from the candidate's private stream (so any cross-candidate rng
/// sharing would show up as thread-count dependence).
double noisy_score(const surface::Config& c, util::Rng& rng,
                   EvalScratch& /*scratch*/) {
    double s = rng.uniform(0.0, 1.0);
    for (std::size_t e = 0; e < c.size(); ++e)
        s += static_cast<double>(c[e]) * static_cast<double>(e + 1) +
             rng.gaussian(0.0, 0.25);
    return s;
}

std::vector<surface::Config> some_batch(std::size_t n) {
    std::vector<surface::Config> batch;
    for (std::size_t i = 0; i < n; ++i)
        batch.push_back({static_cast<int>(i % 4),
                         static_cast<int>((i / 4) % 4),
                         static_cast<int>((i / 16) % 4)});
    return batch;
}

TEST(BatchEvaluator, BitIdenticalAcrossThreadCounts) {
    const auto run = [](std::size_t threads) {
        BatchEvaluator pool(noisy_score, /*seed=*/42, threads);
        std::vector<double> all;
        for (const std::size_t n : {7u, 1u, 16u, 3u}) {
            const std::vector<double> scores = pool.evaluate(some_batch(n));
            all.insert(all.end(), scores.begin(), scores.end());
        }
        return all;
    };
    const std::vector<double> one = run(1);
    const std::vector<double> two = run(2);
    const std::vector<double> eight = run(8);
    ASSERT_EQ(one.size(), two.size());
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i], two[i]) << "candidate " << i;
        EXPECT_EQ(one[i], eight[i]) << "candidate " << i;
    }
}

TEST(BatchEvaluator, SeedsDependOnGlobalIndexNotBatchBoundaries) {
    // Evaluating [a, b] in one batch or two must give the same scores.
    BatchEvaluator joined(noisy_score, 7, 2);
    BatchEvaluator split(noisy_score, 7, 2);
    const std::vector<surface::Config> batch = some_batch(6);
    const std::vector<double> all = joined.evaluate(batch);
    const std::vector<double> head = split.evaluate(
        {batch.begin(), batch.begin() + 2});
    const std::vector<double> tail = split.evaluate(
        {batch.begin() + 2, batch.end()});
    ASSERT_EQ(all.size(), head.size() + tail.size());
    for (std::size_t i = 0; i < head.size(); ++i)
        EXPECT_EQ(all[i], head[i]);
    for (std::size_t i = 0; i < tail.size(); ++i)
        EXPECT_EQ(all[head.size() + i], tail[i]);
    EXPECT_EQ(split.evaluated(), 6u);
}

TEST(BatchEvaluator, ResolvesThreadCountFromEnvironment) {
    EXPECT_EQ(BatchEvaluator::resolve_threads(5), 5u);
    ::setenv("PRESS_THREADS", "3", 1);
    EXPECT_EQ(BatchEvaluator::resolve_threads(0), 3u);
    EXPECT_EQ(BatchEvaluator::resolve_threads(2), 2u);  // explicit wins
    ::setenv("PRESS_THREADS", "999", 1);
    EXPECT_EQ(BatchEvaluator::resolve_threads(0), 64u);  // clamped
    ::setenv("PRESS_THREADS", "garbage", 1);
    EXPECT_GE(BatchEvaluator::resolve_threads(0), 1u);  // falls through
    ::unsetenv("PRESS_THREADS");
    EXPECT_GE(BatchEvaluator::resolve_threads(0), 1u);
}

TEST(BatchEvaluator, RethrowsWorkerExceptions) {
    BatchEvaluator pool(
        [](const surface::Config& c, util::Rng&, EvalScratch&) -> double {
            if (c[0] == 2) throw std::runtime_error("bad candidate");
            return 1.0;
        },
        1, 4);
    EXPECT_THROW(pool.evaluate(some_batch(12)), std::runtime_error);
    // The pool must survive a throwing batch and keep serving.
    const std::vector<double> ok = pool.evaluate({{0, 0, 0}, {1, 1, 1}});
    EXPECT_EQ(ok, (std::vector<double>{1.0, 1.0}));
}

TEST(BatchEvaluator, CoordinateSweepSharesTheGlobalRngStream) {
    // Scoring a coordinate sweep through evaluate_coordinate must consume
    // exactly the per-candidate streams that scoring the expanded
    // configurations through evaluate would — mixing entry points may not
    // fork the rng sequence.
    const CoordinateScoreFn cscore =
        [](const CoordinateBatch& cb, std::size_t i, util::Rng& rng,
           EvalScratch& s) {
            surface::Config c = *cb.base;
            c[cb.element] = (*cb.states)[i];
            return noisy_score(c, rng, s);
        };
    const surface::Config base{1, 2, 3};
    const std::vector<int> states{0, 1, 2, 3};

    BatchEvaluator expanded(noisy_score, 42, 2);
    std::vector<surface::Config> configs;
    for (const int st : states) {
        configs.push_back(base);
        configs.back()[1] = st;
    }
    expanded.evaluate(some_batch(3));  // offset the global index
    const std::vector<double> want = expanded.evaluate(configs);

    for (const std::size_t threads : {1u, 2u, 8u}) {
        BatchEvaluator pool(noisy_score, 42, threads);
        pool.set_coordinate_score(cscore);
        pool.evaluate(some_batch(3));
        const std::vector<double> got =
            pool.evaluate_coordinate({&base, 1, &states});
        EXPECT_EQ(got, want) << threads << " threads";
        EXPECT_EQ(pool.evaluated(), 7u);
    }
}

TEST(BatchEvaluator, ArenaGrowthIsBoundedByWorkersNotBatches) {
    // With a fixed working-set size, each worker's arena grows at most
    // once per buffer (when that worker scores its first candidate), so
    // total growth is bounded by workers x buffers no matter how many
    // batches run — the zero-allocation steady-state contract.
    constexpr std::size_t kThreads = 4;
    BatchEvaluator pool(
        [](const surface::Config& c, util::Rng&, EvalScratch& s) {
            s.resize_tracked(s.snr_db, 64);
            s.resize_tracked(s.h, 64);  // grows s.h.re and s.h.im
            return static_cast<double>(c[0]);
        },
        3, kThreads);
    for (int round = 0; round < 8; ++round) pool.evaluate(some_batch(16));
    const BatchEvaluator::ArenaStats stats = pool.arena_stats();
    EXPECT_GT(stats.grow_events, 0u);
    EXPECT_LE(stats.grow_events, kThreads * 3u);
    EXPECT_LE(stats.bytes_reserved, kThreads * 3u * 64 * sizeof(double));
}

TEST(BatchEvaluator, DeltaToggleParsesTheEnvironment) {
    ::unsetenv("PRESS_DELTA");
    EXPECT_TRUE(coordinate_delta_enabled());
    ::setenv("PRESS_DELTA", "0", 1);
    EXPECT_FALSE(coordinate_delta_enabled());
    ::setenv("PRESS_DELTA", "OFF", 1);
    EXPECT_FALSE(coordinate_delta_enabled());
    ::setenv("PRESS_DELTA", "false", 1);
    EXPECT_FALSE(coordinate_delta_enabled());
    ::setenv("PRESS_DELTA", "1", 1);
    EXPECT_TRUE(coordinate_delta_enabled());
    ::unsetenv("PRESS_DELTA");
}

// ----------------------------------------------------- batched searchers

surface::ConfigSpace small_space() {
    return surface::ConfigSpace(std::vector<int>{4, 4, 4});
}

/// Deterministic objective with a unique optimum at (3, 2, 1).
double plateau_score(const surface::Config& c) {
    const int target[3] = {3, 2, 1};
    double s = 0.0;
    for (std::size_t e = 0; e < c.size(); ++e)
        s -= std::abs(c[e] - target[e]) * (1.0 + 0.1 * double(e));
    return s;
}

TEST(SearchBatched, ExhaustiveMatchesSerialForAnyChunking) {
    const surface::ConfigSpace space = small_space();
    const EvalFn eval = plateau_score;
    const BatchEvalFn beval = [](const std::vector<surface::Config>& b) {
        std::vector<double> s;
        for (const surface::Config& c : b) s.push_back(plateau_score(c));
        return s;
    };
    ExhaustiveSearcher searcher;
    util::Rng rng(1);
    const SearchResult serial = searcher.search(space, eval, 64, rng);
    for (const std::size_t chunk : {1u, 5u, 16u, 64u, 100u}) {
        util::Rng rng_b(1);
        const SearchResult batched = searcher.search_batched(
            space, beval, 64, rng_b, nullptr, chunk);
        EXPECT_EQ(batched.best_config, serial.best_config);
        EXPECT_EQ(batched.best_score, serial.best_score);
        EXPECT_EQ(batched.evaluations, serial.evaluations);
        EXPECT_EQ(batched.trajectory, serial.trajectory);
    }
}

TEST(SearchBatched, GreedyMatchesSerialEvaluationSequence) {
    const surface::ConfigSpace space = small_space();
    std::vector<surface::Config> serial_order, batched_order;
    const EvalFn eval = [&](const surface::Config& c) {
        serial_order.push_back(c);
        return plateau_score(c);
    };
    const BatchEvalFn beval = [&](const std::vector<surface::Config>& b) {
        std::vector<double> s;
        for (const surface::Config& c : b) {
            batched_order.push_back(c);
            s.push_back(plateau_score(c));
        }
        return s;
    };
    GreedyCoordinateDescent searcher;
    util::Rng rng_a(3), rng_b(3);
    const SearchResult serial = searcher.search(space, eval, 40, rng_a);
    const SearchResult batched =
        searcher.search_batched(space, beval, 40, rng_b);
    EXPECT_EQ(serial.best_config, batched.best_config);
    EXPECT_EQ(serial.best_score, batched.best_score);
    EXPECT_EQ(serial_order, batched_order);
}

TEST(SearchBatched, DefaultAdapterCoversEveryStrategy) {
    // search() is an adapter over the one batched body: with a
    // one-at-a-time batch evaluator the two entries run the same
    // candidates and leave the rng in the same place.
    const surface::ConfigSpace space = small_space();
    const EvalFn eval = plateau_score;
    const BatchEvalFn beval = [](const std::vector<surface::Config>& b) {
        std::vector<double> s;
        for (const surface::Config& c : b) s.push_back(plateau_score(c));
        return s;
    };
    for (const auto& searcher : all_searchers()) {
        util::Rng rng_a(11), rng_b(11);
        const SearchResult serial = searcher->search(space, eval, 32, rng_a);
        const SearchResult r =
            searcher->search_batched(space, beval, 32, rng_b);
        EXPECT_GE(r.evaluations, 1u) << searcher->name();
        EXPECT_EQ(r.trajectory.size(), r.evaluations) << searcher->name();
        EXPECT_EQ(r.trajectory, serial.trajectory) << searcher->name();
        EXPECT_EQ(r.best_config, serial.best_config) << searcher->name();
        EXPECT_EQ(r.evaluations, serial.evaluations) << searcher->name();
        EXPECT_EQ(rng_a.uniform_int(0, 1ll << 62),
                  rng_b.uniform_int(0, 1ll << 62))
            << searcher->name();
    }
}

TEST(SearchBatched, ShortReplyOnlyWhenStopHolds) {
    // An evaluator may end a batch early only on the deadline: a short,
    // non-empty reply after which the stop holds. Anything else is a
    // mismatched score count.
    const surface::ConfigSpace space = small_space();
    ExhaustiveSearcher searcher;
    bool deadline = false;
    const StopFn stop = [&deadline]() { return deadline; };
    const auto scoring_first = [&deadline](std::size_t n, bool then_stop) {
        return [&deadline, n,
                then_stop](const std::vector<surface::Config>& b) {
            std::vector<double> s;
            for (std::size_t i = 0; i < std::min(n, b.size()); ++i)
                s.push_back(plateau_score(b[i]));
            deadline = then_stop;
            return s;
        };
    };
    util::Rng rng(1);
    const SearchResult cut = searcher.search_batched(
        space, scoring_first(3, true), 64, rng, stop, 8);
    EXPECT_EQ(cut.evaluations, 3u);
    EXPECT_EQ(cut.trajectory.size(), 3u);
    deadline = false;
    EXPECT_THROW(searcher.search_batched(space, scoring_first(3, false), 64,
                                         rng, stop, 8),
                 util::ContractViolation);
    deadline = false;
    EXPECT_THROW(searcher.search_batched(space, scoring_first(0, true), 64,
                                         rng, stop, 8),
                 util::ContractViolation);
}

TEST(GreedyMemoization, NeverEvaluatesAConfigurationTwice) {
    const surface::ConfigSpace space = small_space();
    std::multiset<surface::Config> seen;
    const EvalFn eval = [&](const surface::Config& c) {
        seen.insert(c);
        return plateau_score(c);
    };
    GreedyCoordinateDescent searcher;
    util::Rng rng(5);
    // A budget much larger than the space: without memoization the
    // restarts would re-measure the same neighborhoods over and over.
    const SearchResult r = searcher.search(space, eval, 1000, rng);
    EXPECT_EQ(seen.size(), r.evaluations);
    for (const surface::Config& c : seen)
        EXPECT_EQ(seen.count(c), 1u);
    // Once every reachable configuration is memoized the search stops
    // instead of spinning on free lookups.
    EXPECT_LE(r.evaluations, space.size());
    EXPECT_EQ(r.best_config, (surface::Config{3, 2, 1}));
}

// ------------------------------------------------------- optimize_fast

TEST(OptimizeFast, DeterministicAcrossThreadCounts) {
    const auto run = [](std::size_t threads) {
        core::LinkScenario scenario = core::make_link_scenario(21, false);
        util::Rng rng(6);
        return scenario.system.optimize_fast(
            scenario.array_id, MinSnrObjective(0),
            GreedyCoordinateDescent(), ControlPlaneModel::fast(), 0.25,
            rng, threads);
    };
    const OptimizationOutcome one = run(1);
    const OptimizationOutcome two = run(2);
    const OptimizationOutcome eight = run(8);
    EXPECT_EQ(one.search.best_config, two.search.best_config);
    EXPECT_EQ(one.search.best_config, eight.search.best_config);
    EXPECT_EQ(one.search.best_score, two.search.best_score);
    EXPECT_EQ(one.search.best_score, eight.search.best_score);
    EXPECT_EQ(one.search.trajectory, two.search.trajectory);
    EXPECT_EQ(one.search.trajectory, eight.search.trajectory);
    EXPECT_EQ(one.elapsed_s, two.elapsed_s);
}

TEST(OptimizeFast, DeltaPathMatchesRecomputeBitExactly) {
    // The incremental coordinate-delta path (base response cached per
    // coordinate) and the recompute-per-candidate path must produce
    // identical SearchResults — same bits, any thread count. Both add the
    // swept element's row last, so this is an equality, not a tolerance.
    const auto run = [](const char* delta, std::size_t threads,
                        bool mean_objective) {
        ::setenv("PRESS_DELTA", delta, 1);
        core::LinkScenario scenario = core::make_link_scenario(21, false);
        util::Rng rng(6);
        OptimizationOutcome o;
        if (mean_objective)
            o = scenario.system.optimize_fast(
                scenario.array_id, MeanSnrObjective(0),
                GreedyCoordinateDescent(), ControlPlaneModel::fast(), 0.25,
                rng, threads);
        else
            o = scenario.system.optimize_fast(
                scenario.array_id, MinSnrObjective(0),
                GreedyCoordinateDescent(), ControlPlaneModel::fast(), 0.25,
                rng, threads);
        ::unsetenv("PRESS_DELTA");
        return o.search;
    };
    for (const bool mean_objective : {false, true}) {
        const SearchResult on = run("1", 1, mean_objective);
        for (const std::size_t threads : {1u, 3u, 8u}) {
            const SearchResult off = run("0", threads, mean_objective);
            EXPECT_EQ(on.best_config, off.best_config);
            EXPECT_EQ(on.best_score, off.best_score);
            EXPECT_EQ(on.best_score_remeasured, off.best_score_remeasured);
            EXPECT_EQ(on.trajectory, off.trajectory);
            const SearchResult on_t = run("1", threads, mean_objective);
            EXPECT_EQ(on.trajectory, on_t.trajectory);
            EXPECT_EQ(on.best_score_remeasured,
                      on_t.best_score_remeasured);
        }
    }
}

TEST(OptimizeFast, FusedAndGeneralObjectivesAgreeOnMinSnr) {
    // MinSnrObjective takes the fused path (no Observation); an objective
    // with the same score function but no fused_spec() takes the general
    // path. Min is association-insensitive, and both paths draw one
    // link's noise from the same candidate stream, so the two searches
    // must match bit-for-bit on a single-link scenario.
    class UnfusedMinSnr : public Objective {
    public:
        double score(const Observation& obs) const override {
            return MinSnrObjective(0).score(obs);
        }
        std::string name() const override { return "unfused-min-snr"; }
    };
    const auto run = [](const Objective& objective) {
        core::LinkScenario scenario = core::make_link_scenario(17, false);
        util::Rng rng(4);
        return scenario.system
            .optimize_fast(scenario.array_id, objective,
                           GreedyCoordinateDescent(),
                           ControlPlaneModel::fast(), 0.2, rng, 2)
            .search;
    };
    const SearchResult fused = run(MinSnrObjective(0));
    const SearchResult general = run(UnfusedMinSnr());
    EXPECT_EQ(fused.best_config, general.best_config);
    EXPECT_EQ(fused.best_score, general.best_score);
    EXPECT_EQ(fused.trajectory, general.trajectory);
}

TEST(OptimizeFast, LeavesTheBestConfigurationApplied) {
    core::LinkScenario scenario = core::make_link_scenario(8, false);
    util::Rng rng(2);
    const OptimizationOutcome outcome = scenario.system.optimize_fast(
        scenario.array_id, MinSnrObjective(0), ExhaustiveSearcher(),
        ControlPlaneModel::fast(), 1.0, rng);
    EXPECT_EQ(scenario.system.medium()
                  .array(scenario.array_id)
                  .current_config(),
              outcome.search.best_config);
    EXPECT_GT(outcome.search.evaluations, 0u);
    EXPECT_GT(outcome.elapsed_s, 0.0);
    EXPECT_EQ(outcome.trial_cost_s * double(outcome.search.evaluations),
              outcome.elapsed_s);
}

TEST(OptimizeFast, AgreesWithSerialOptimizeOnTheWinner) {
    // With a deterministic exhaustive sweep, the cached parallel path and
    // the serial controller must crown the same configuration (scores are
    // measured with different noise draws, so compare the argmax only
    // via the true objective).
    core::LinkScenario cached = core::make_link_scenario(33, false);
    core::LinkScenario serial = core::make_link_scenario(33, false);
    const MinSnrObjective objective(0);
    util::Rng rng_a(9), rng_b(9);
    const OptimizationOutcome fast = cached.system.optimize_fast(
        cached.array_id, objective, ExhaustiveSearcher(),
        ControlPlaneModel::prototype(), 400.0, rng_a);
    const OptimizationOutcome slow = serial.system.optimize(
        serial.array_id, objective, ExhaustiveSearcher(),
        ControlPlaneModel::prototype(), 400.0, rng_b);
    EXPECT_EQ(fast.search.evaluations, slow.search.evaluations);
    const double true_fast =
        objective.score(cached.system.observe_true());
    const double true_slow =
        objective.score(serial.system.observe_true());
    // Both swept all 64 configurations; measurement noise may pick
    // near-tied winners, so allow a small true-objective gap.
    EXPECT_NEAR(true_fast, true_slow, 3.0);
}

TEST(OptimizeFast, RespectsInjectedFaults) {
    core::LinkScenario scenario = core::make_link_scenario(14, false);
    fault::Fault stuck;
    stuck.element = 0;
    stuck.type = fault::FaultType::kStuckAt;
    stuck.stuck_state = 1;
    fault::FaultModel model(util::Rng(4));
    model.add(stuck);
    scenario.system.inject_faults(scenario.array_id, std::move(model));
    util::Rng rng(12);
    const OptimizationOutcome outcome = scenario.system.optimize_fast(
        scenario.array_id, MinSnrObjective(0), ExhaustiveSearcher(),
        ControlPlaneModel::fast(), 1.0, rng);
    // Whatever the search requested, the stuck element pinned its state.
    EXPECT_EQ(scenario.system.medium()
                  .array(scenario.array_id)
                  .current_config()[0],
              1);
    EXPECT_GT(outcome.search.evaluations, 0u);
}

}  // namespace
}  // namespace press::control
