// Multi-user, multi-objective control over the shared basis: the
// MultiLinkCache's stacked wide rows must be bit-faithful to N
// independent LinkCaches, the composite objective combinators must be
// exact algebra, and optimize_fast must keep the determinism contract for
// composite objectives — bit-identical results across thread counts and
// kernel flavors — while a one-term spec scores exactly like the
// single-link objective it describes and the service engine routes every
// preset through the same driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "control/batch.hpp"
#include "control/message.hpp"
#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "core/link_cache.hpp"
#include "core/multilink_cache.hpp"
#include "core/scenarios.hpp"
#include "core/serve.hpp"
#include "core/system.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace press::core {
namespace {

using control::BatchEvaluator;
using control::ControlPlaneModel;
using control::FusedSpec;
using control::GreedyCoordinateDescent;
using control::LinkTerm;
using control::MajorityVoteSearcher;
using control::MultiLinkObjective;
using control::MultiLinkProblem;
using control::Observation;
using control::Reduce;
using control::SearchResult;

/// A small N-link scene the bit-identity tests can afford to re-trace:
/// 2 APs x 2 clients over a 6-element 4-phase panel.
MultiLinkParams small_params() {
    MultiLinkParams p;
    p.num_aps = 2;
    p.clients_per_ap = 2;
    p.num_elements = 6;
    p.num_states = 4;
    return p;
}

surface::Config random_config(const surface::ConfigSpace& space,
                              util::Rng& rng) {
    const std::vector<int>& radices = space.radices();
    surface::Config c(space.num_elements());
    for (std::size_t e = 0; e < c.size(); ++e)
        c[e] = static_cast<int>(rng.uniform_int(0, radices[e] - 1));
    return c;
}

TEST(MultiLinkScene, ShapeAndGrouping) {
    MultiLinkScenario scenario = make_multi_link_scenario(7);
    ASSERT_EQ(scenario.num_aps, 4u);
    ASSERT_EQ(scenario.clients_per_ap, 8u);
    ASSERT_EQ(scenario.num_links, 32u);
    ASSERT_EQ(scenario.system.num_links(), 32u);

    scenario.system.warm_multilink();
    const MultiLinkCache& cache = scenario.system.multilink_cache();
    ASSERT_TRUE(cache.warmed());
    // One group per AP: links are AP-major, so group a holds links
    // a*8 .. a*8+7 in slot order 0..7.
    ASSERT_EQ(cache.num_groups(), scenario.num_aps);
    ASSERT_EQ(cache.num_links(), scenario.num_links);
    EXPECT_GE(cache.num_sc(), 1u);
    EXPECT_EQ(cache.link_stride() % util::kernels::kLanes, 0u);
    EXPECT_GE(cache.link_stride(), cache.num_sc());
    for (std::size_t a = 0; a < scenario.num_aps; ++a) {
        const std::vector<std::size_t>& members = cache.group_links(a);
        ASSERT_EQ(members.size(), scenario.clients_per_ap);
        EXPECT_EQ(cache.group_basis(a).width(),
                  scenario.clients_per_ap * cache.link_stride());
        for (std::size_t c = 0; c < members.size(); ++c) {
            const std::size_t id = a * scenario.clients_per_ap + c;
            EXPECT_EQ(members[c], id);
            const MultiLinkCache::LinkView view = cache.view(id);
            EXPECT_EQ(view.group, a);
            EXPECT_EQ(view.slot, c);
            EXPECT_EQ(view.offset, c * cache.link_stride());
        }
    }
    EXPECT_GE(scenario.system.multilink_cache_stats().rebuilds, 1u);

    // The honest memory story: table bytes match the naive side (every
    // row exists once either way); the sharing wins on metadata.
    const MultiLinkCache::MemoryStats mem = cache.memory_stats();
    EXPECT_EQ(mem.shared_table_bytes, mem.naive_table_bytes);
    EXPECT_LT(mem.shared_metadata_bytes, mem.naive_metadata_bytes);
    EXPECT_GT(mem.shared_table_bytes, 0u);
}

// The tentpole bit-identity contract: each link's segment of the wide
// group response is bitwise what its own LinkCache would have produced.
TEST(MultiLinkCacheTest, SharedBasisMatchesPerLinkCaches) {
    MultiLinkScenario scenario = make_multi_link_scenario(11, small_params());
    System& system = scenario.system;
    const sdr::Medium& medium = system.medium();
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();

    system.warm_multilink();
    const MultiLinkCache& shared = system.multilink_cache();
    LinkCache naive;
    for (std::size_t id = 0; id < system.num_links(); ++id)
        naive.warm(medium, id, system.link(id));

    util::kernels::SplitVec wide, narrow;
    util::Rng rng(23);
    for (int trial = 0; trial < 4; ++trial) {
        const surface::Config config = random_config(space, rng);
        for (std::size_t g = 0; g < shared.num_groups(); ++g) {
            shared.group_response_into(medium, g, scenario.array_id,
                                       config, wide);
            ASSERT_EQ(wide.size(), shared.group_basis(g).width());
            for (const std::size_t id : shared.group_links(g)) {
                const MultiLinkCache::LinkView view = shared.view(id);
                naive.response_into(medium, id, system.link(id),
                                    scenario.array_id, config, narrow);
                ASSERT_EQ(narrow.size(), shared.num_sc());
                for (std::size_t k = 0; k < narrow.size(); ++k) {
                    EXPECT_EQ(wide.re[view.offset + k], narrow.re[k])
                        << "link " << id << " sc " << k;
                    EXPECT_EQ(wide.im[view.offset + k], narrow.im[k])
                        << "link " << id << " sc " << k;
                }
                // Segment padding past num_sc stays zero.
                for (std::size_t k = narrow.size();
                     k < shared.link_stride(); ++k) {
                    EXPECT_EQ(wide.re[view.offset + k], 0.0);
                    EXPECT_EQ(wide.im[view.offset + k], 0.0);
                }
            }
        }
    }
}

// The coordinate-sweep delta arithmetic: copying a cached wide base and
// adding one wide element row is bitwise the same as recomputing the
// base and adding the row, and each link's segment matches LinkCache's
// own base+row path bit for bit.
TEST(MultiLinkCacheTest, DeltaPathMatchesPerLinkDelta) {
    MultiLinkScenario scenario = make_multi_link_scenario(13, small_params());
    System& system = scenario.system;
    const sdr::Medium& medium = system.medium();
    const surface::ConfigSpace space =
        medium.array(scenario.array_id).config_space();

    system.warm_multilink();
    const MultiLinkCache& shared = system.multilink_cache();
    LinkCache naive;
    for (std::size_t id = 0; id < system.num_links(); ++id)
        naive.warm(medium, id, system.link(id));

    util::Rng rng(29);
    const surface::Config base = random_config(space, rng);
    util::kernels::SplitVec cached_base, fresh, candidate, narrow;
    const util::kernels::Dispatch d = util::kernels::active();
    for (std::size_t g = 0; g < shared.num_groups(); ++g) {
        const StackedBasis& stack = shared.group_basis(g);
        for (std::size_t e = 0; e < base.size(); ++e) {
            stack.read(medium, scenario.array_id, base, e, nullptr, 0,
                       cached_base);
            for (int s = 0; s < space.radices()[e]; ++s) {
                // Delta path: copy the cached base, add the wide row.
                candidate.resize(cached_base.size());
                util::kernels::copy(d, cached_base.re.data(),
                                    cached_base.im.data(),
                                    candidate.re.data(),
                                    candidate.im.data(),
                                    cached_base.size());
                stack.add_row(scenario.array_id, e, s, nullptr, 0,
                              candidate);
                // Recompute path: fresh base, same row.
                stack.read(medium, scenario.array_id, base, e, nullptr, 0,
                           fresh);
                stack.add_row(scenario.array_id, e, s, nullptr, 0, fresh);
                ASSERT_EQ(candidate.size(), fresh.size());
                for (std::size_t k = 0; k < candidate.size(); ++k) {
                    EXPECT_EQ(candidate.re[k], fresh.re[k]);
                    EXPECT_EQ(candidate.im[k], fresh.im[k]);
                }
                // Per-link segments match LinkCache's base+row bits.
                for (const std::size_t id : shared.group_links(g)) {
                    const MultiLinkCache::LinkView view = shared.view(id);
                    naive.response_base_into(medium, id, system.link(id),
                                             scenario.array_id, base, e,
                                             narrow);
                    naive.basis(id).add_row(scenario.array_id, e, s,
                                            nullptr, 0, narrow);
                    for (std::size_t k = 0; k < narrow.size(); ++k) {
                        EXPECT_EQ(candidate.re[view.offset + k],
                                  narrow.re[k])
                            << "link " << id << " element " << e
                            << " state " << s;
                        EXPECT_EQ(candidate.im[view.offset + k],
                                  narrow.im[k])
                            << "link " << id << " element " << e
                            << " state " << s;
                    }
                }
            }
        }
    }
}

// The group side shares LinkCache's tile-bounded and fused forms: a
// ranged base plus a fused ranged row delta over a group's stack writes,
// in every member segment, exactly the span doubles of that link's own
// LinkCache ranged base + delta.
TEST(MultiLinkCacheTest, RangedGroupDeltaMatchesPerLinkDelta) {
    MultiLinkScenario scenario = make_multi_link_scenario(17, small_params());
    System& system = scenario.system;
    const sdr::Medium& medium = system.medium();
    const std::size_t array_id = scenario.array_id;
    const surface::ConfigSpace space = medium.array(array_id).config_space();

    system.warm_multilink();
    const MultiLinkCache& shared = system.multilink_cache();
    LinkCache naive;
    for (std::size_t id = 0; id < system.num_links(); ++id)
        naive.warm(medium, id, system.link(id));

    const std::vector<util::kernels::IndexRange> spans = {{0, 16}, {32, 20}};
    util::Rng rng(37);
    const surface::Config base = random_config(space, rng);
    util::kernels::SplitVec group_base, group_cand, link_base, link_cand;
    for (std::size_t g = 0; g < shared.num_groups(); ++g) {
        const StackedBasis& stack = shared.group_basis(g);
        for (std::size_t e = 0; e < base.size(); ++e) {
            stack.read(medium, array_id, base, e, spans.data(), spans.size(),
                       group_base);
            group_cand.assign_zero(group_base.size());
            for (int s = 0; s < space.radices()[e]; ++s) {
                stack.row_delta(array_id, e, s, spans.data(), spans.size(),
                                group_base, group_cand);
                for (const std::size_t id : shared.group_links(g)) {
                    const StackedBasis& own = naive.basis(id);
                    own.read(medium, array_id, base, e, spans.data(),
                             spans.size(), link_base);
                    link_cand.assign_zero(link_base.size());
                    own.row_delta(array_id, e, s, spans.data(), spans.size(),
                                  link_base, link_cand);
                    const std::size_t offset = shared.view(id).offset;
                    for (const util::kernels::IndexRange& r : spans)
                        for (std::size_t k = r.offset; k < r.offset + r.len;
                             ++k) {
                            EXPECT_EQ(group_cand.re[offset + k],
                                      link_cand.re[k]);
                            EXPECT_EQ(group_cand.im[offset + k],
                                      link_cand.im[k]);
                        }
                }
            }
        }
    }
}

// QoS hinge algebra: u = weight*v - qos_weight*max(0, floor - v).
TEST(MultiLinkObjectiveTest, TermUtilityHingeExact) {
    LinkTerm plain;
    plain.weight = 2.0;
    EXPECT_EQ(MultiLinkObjective::term_utility(plain, 7.5), 15.0);
    EXPECT_EQ(MultiLinkObjective::term_utility(plain, -3.0), -6.0);

    LinkTerm qos;
    qos.weight = 1.0;
    qos.qos_floor_db = 10.0;
    qos.qos_weight = 4.0;
    // Above the floor: no penalty, exactly weight * v.
    EXPECT_EQ(MultiLinkObjective::term_utility(qos, 12.0), 12.0);
    EXPECT_EQ(MultiLinkObjective::term_utility(qos, 10.0), 10.0);
    // Below: weight*v - qos_weight*(floor - v).
    EXPECT_EQ(MultiLinkObjective::term_utility(qos, 8.0),
              8.0 - 4.0 * 2.0);
    EXPECT_EQ(MultiLinkObjective::term_utility(qos, -2.0),
              -2.0 - 4.0 * 12.0);

    // Negative weight = nulling: utility improves as the victim drops.
    LinkTerm null;
    null.weight = -1.5;
    EXPECT_EQ(MultiLinkObjective::term_utility(null, 20.0), -30.0);
    EXPECT_GT(MultiLinkObjective::term_utility(null, 5.0),
              MultiLinkObjective::term_utility(null, 6.0));
}

// Max-min monotonicity: the combined score is the worst term utility,
// and raising any single utility never lowers the combined score.
TEST(MultiLinkObjectiveTest, MaxMinCombineMonotone) {
    FusedSpec spec;
    spec.terms.resize(5);
    spec.combine = FusedSpec::Combine::kMaxMin;
    const auto combine = [&](const std::vector<double>& u) {
        double acc = 0.0;
        for (std::size_t t = 0; t < u.size(); ++t)
            acc = MultiLinkObjective::fold(spec, t, acc, u[t]);
        return acc;
    };
    util::Rng rng(41);
    for (int trial = 0; trial < 32; ++trial) {
        std::vector<double> u(5);
        for (double& v : u) v = rng.uniform(-30.0, 40.0);
        const double combined = combine(u);
        EXPECT_EQ(combined, *std::min_element(u.begin(), u.end()));
        for (std::size_t i = 0; i < u.size(); ++i) {
            std::vector<double> raised = u;
            raised[i] += rng.uniform(0.0, 10.0);
            EXPECT_GE(combine(raised), combined);
        }
    }
}

// A one-term spec scores exactly its term's reduced SNR: the fold starts
// from the first utility rather than adding it to 0.0, so even a -0 dB
// reduction keeps its sign, and the single-link objectives (one-term
// specs themselves) agree with the built composite bit for bit.
TEST(MultiLinkObjectiveTest, OneTermScoreIsTheReducedSnrBitForBit) {
    Observation obs;
    obs.link_snr_db = {{3.0, -0.0, 7.5}, {12.0, 8.0, 15.0}};
    const auto one_term =
        MultiLinkProblem().reduce(Reduce::kMinSnr).serve(0).build();
    const double v = one_term->score(obs);
    EXPECT_EQ(v, 0.0);
    EXPECT_TRUE(std::signbit(v));
    EXPECT_TRUE(std::signbit(control::MinSnrObjective(0).score(obs)));
    ASSERT_NE(one_term->fused_spec(), nullptr);
    EXPECT_EQ(one_term->fused_spec()->terms.size(), 1u);

    const auto mean_term = MultiLinkProblem().serve(1).build();
    EXPECT_EQ(mean_term->score(obs), util::mean(obs.link_snr_db[1]));
    EXPECT_EQ(control::MeanSnrObjective(1).score(obs),
              util::mean(obs.link_snr_db[1]));
}

// Weighted-sum score through the general Observation path must equal the
// manually combined per-term utilities.
TEST(MultiLinkObjectiveTest, WeightedSumScoreMatchesManual) {
    Observation obs;
    obs.link_snr_db = {{12.0, 8.0, 15.0}, {3.0, 5.0, 4.0}, {22.0, 19.0}};

    FusedSpec spec;
    LinkTerm a;  // mean of link 0, weight 2
    a.link = 0;
    a.weight = 2.0;
    LinkTerm b;  // min of link 1 with a 10 dB floor
    b.link = 1;
    b.reduce = Reduce::kMinSnr;
    b.qos_floor_db = 10.0;
    b.qos_weight = 4.0;
    LinkTerm c;  // null link 2
    c.link = 2;
    c.weight = -1.0;
    spec.terms = {a, b, c};

    const MultiLinkObjective objective(spec);
    const double mean0 = util::mean(obs.link_snr_db[0]);
    const double min1 = util::min_value(obs.link_snr_db[1]);
    const double mean2 = util::mean(obs.link_snr_db[2]);
    const double expected = 2.0 * mean0 +
                            (min1 - 4.0 * (10.0 - min1)) + (-1.0 * mean2);
    EXPECT_DOUBLE_EQ(objective.score(obs), expected);
    EXPECT_NE(objective.fused_spec(), nullptr);

    // Max-min over the same terms: worst utility wins.
    FusedSpec mm = spec;
    mm.combine = FusedSpec::Combine::kMaxMin;
    const double worst = std::min({2.0 * mean0,
                                   min1 - 4.0 * (10.0 - min1),
                                   -1.0 * mean2});
    EXPECT_DOUBLE_EQ(MultiLinkObjective(mm).score(obs), worst);
}

TEST(MultiLinkObjectiveTest, ProblemBuilderComposesSpec) {
    const auto objective = MultiLinkProblem()
                               .serve(0, 2.0)
                               .qos_floor(1, 10.0, 4.0)
                               .null(2, 1.5)
                               .max_min()
                               .build("scene");
    const FusedSpec* spec = objective->fused_spec();
    ASSERT_NE(spec, nullptr);
    ASSERT_EQ(spec->terms.size(), 3u);
    EXPECT_EQ(spec->combine, FusedSpec::Combine::kMaxMin);
    EXPECT_EQ(spec->terms[0].link, 0u);
    EXPECT_EQ(spec->terms[0].weight, 2.0);
    EXPECT_EQ(spec->terms[1].qos_floor_db, 10.0);
    EXPECT_EQ(spec->terms[1].qos_weight, 4.0);
    EXPECT_EQ(spec->terms[2].weight, -1.5);
    EXPECT_EQ(objective->name(), "scene");

    const auto maxmin = control::make_max_min_objective(4);
    ASSERT_NE(maxmin->fused_spec(), nullptr);
    EXPECT_EQ(maxmin->fused_spec()->terms.size(), 4u);
    EXPECT_EQ(maxmin->fused_spec()->combine, FusedSpec::Combine::kMaxMin);
    const auto null = control::make_nulling_objective(3, 1, 2.0);
    ASSERT_EQ(null->fused_spec()->terms.size(), 3u);
    EXPECT_EQ(null->fused_spec()->terms[1].weight, -2.0);
}

// Weighted sharding: a task that reads `w` group tiles per evaluation
// shrinks the shard so one shard stays a bounded unit of work; the
// floor of one task per shard is preserved (a task never splits).
TEST(MultiLinkBatch, WeightedShardSizePolicy) {
    // weight 1 defers to the unweighted policy.
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 1),
              BatchEvaluator::shard_size_for(4096, 8));
    // Cap = max(1, 64 / weight), never above the unweighted size.
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 2), 32u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 32), 2u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 64), 1u);
    EXPECT_EQ(BatchEvaluator::shard_size_for(4096, 8, 1000), 1u);
    // Small batches keep the unweighted (already small) shard.
    EXPECT_EQ(BatchEvaluator::shard_size_for(4, 8, 32), 1u);
}

// The headline determinism contract, extended to composite objectives:
// optimize_fast lands on the same configuration, bit for bit, for
// any evaluator thread count and either kernel flavor — for both the
// batched vote searcher and the delta-sweeping greedy searcher.
TEST(MultiLinkSearch, BitIdenticalAcrossThreadsAndKernels) {
    const MultiLinkParams params = small_params();
    const ControlPlaneModel plane = ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.config.assign(static_cast<std::size_t>(params.num_elements), 0);

    const auto run = [&](std::size_t threads,
                         util::kernels::Dispatch dispatch,
                         const control::Searcher& searcher,
                         const control::Objective& objective) {
        const util::kernels::Dispatch before = util::kernels::active();
        util::kernels::set_dispatch(dispatch);
        MultiLinkScenario scenario = make_multi_link_scenario(19, params);
        const double trial_s = plane.config_trial_time_s(
            probe, scenario.num_links,
            scenario.system.medium().ofdm().num_used());
        util::Rng rng(17);
        const auto outcome = scenario.system.optimize_fast(
            scenario.array_id, objective, searcher, plane,
            120.0 * trial_s, rng, threads);
        util::kernels::set_dispatch(before);
        EXPECT_TRUE(outcome.final_apply_ok);
        return outcome.search;
    };

    const auto maxmin = control::make_max_min_objective(4);
    const auto nulling = control::make_nulling_objective(4, 3);
    const GreedyCoordinateDescent greedy;
    const MajorityVoteSearcher vote;
    const struct {
        const control::Searcher& searcher;
        const control::Objective& objective;
    } cases[] = {{greedy, *maxmin},
                 {vote, *maxmin},
                 {greedy, *nulling}};
    for (const auto& c : cases) {
        const SearchResult base =
            run(1, util::kernels::Dispatch::kScalar, c.searcher,
                c.objective);
        const SearchResult threaded =
            run(8, util::kernels::Dispatch::kScalar, c.searcher,
                c.objective);
        const SearchResult native =
            run(1, util::kernels::Dispatch::kNative, c.searcher,
                c.objective);
        EXPECT_EQ(base.best_config, threaded.best_config);
        EXPECT_EQ(base.best_score, threaded.best_score);
        EXPECT_EQ(base.evaluations, threaded.evaluations);
        EXPECT_EQ(base.best_config, native.best_config);
        EXPECT_EQ(base.best_score, native.best_score);
        EXPECT_GT(base.evaluations, 0u);
        EXPECT_GT(base.best_score, control::kFailedTrialScore);
    }
}

// Shared-basis accounting: an optimize cycle rebuilds once, then every
// batched evaluation is warm reads.
TEST(MultiLinkSearch, SharedBasisStaysWarmAcrossSearch) {
    MultiLinkScenario scenario = make_multi_link_scenario(31, small_params());
    const ControlPlaneModel plane = ControlPlaneModel::fast();
    control::SetConfig probe;
    probe.config.assign(6, 0);
    const double trial_s = plane.config_trial_time_s(
        probe, scenario.num_links,
        scenario.system.medium().ofdm().num_used());
    const auto objective = control::make_sum_mean_objective(4);
    util::Rng rng(3);
    const auto outcome = scenario.system.optimize_fast(
        scenario.array_id, *objective, MajorityVoteSearcher(), plane,
        100.0 * trial_s, rng, 2);
    EXPECT_GT(outcome.search.evaluations, 0u);
    const MultiLinkCache::Stats stats =
        scenario.system.multilink_cache_stats();
    EXPECT_EQ(stats.rebuilds, 1u);
    EXPECT_GT(stats.hits, 0u);
}

// optimize_multilink is the former multi-link entry point of the one
// driver: for any single-link objective — fused or general, masked or
// not — it lands on optimize_fast's winner with the same scores,
// evaluation count and rng consumption, bit for bit.
TEST(MultiLinkSearch, MatchesOptimizeFastForSingleLinkObjectives) {
    struct Scene {
        const char* name;
        System system;
        std::size_t array_id;
    };
    LinkScenario study = make_link_scenario(100, /*line_of_sight=*/false);
    MultiLinkScenario multi = make_multi_link_scenario(302);
    WidebandScenario wide = make_wideband_scenario(11);
    Scene scenes[] = {{"study", std::move(study.system), study.array_id},
                      {"32-link", std::move(multi.system), multi.array_id},
                      {"wideband", std::move(wide.system), wide.array_id}};

    const ControlPlaneModel plane = ControlPlaneModel::fast();
    const std::size_t half = scenes[0].system.medium().ofdm().num_used() / 2;
    const control::MinSnrObjective min_snr;
    const control::MeanSnrObjective mean_snr;
    const control::ThroughputObjective throughput;
    const control::WeightedBandObjective bands(
        {{0, 0, half, 1.0}, {0, half, 2 * half, -0.5}});
    const control::MaskedSnrObjective masked(wide.mask, Reduce::kMinSnr);
    const GreedyCoordinateDescent greedy;
    const control::RandomSearcher random;
    const MajorityVoteSearcher vote(16);

    struct Case {
        std::size_t scene;
        const control::Objective& objective;
        const control::Searcher& searcher;
        std::size_t threads;
        double budget_s;
    };
    const control::Objective* objectives[] = {&min_snr, &mean_snr,
                                              &throughput, &bands};
    const control::Searcher* searchers[] = {&greedy, &random, &vote};
    std::vector<Case> cases;
    for (std::size_t scene = 0; scene < 2; ++scene)
        for (const control::Objective* objective : objectives)
            for (const control::Searcher* searcher : searchers)
                for (const std::size_t threads : {1u, 3u})
                    cases.push_back({scene, *objective, *searcher, threads,
                                     0.0});
    // The RU-masked objective: only the mask's active tones are scored.
    cases.push_back({2, masked, greedy, 2, 0.05});

    for (const Case& c : cases) {
        Scene& scene = scenes[c.scene];
        const surface::Config initial =
            scene.system.medium().array(scene.array_id).current_config();
        control::SetConfig probe;
        probe.config = initial;
        const double budget_s =
            c.budget_s > 0.0
                ? c.budget_s
                : 24.0 * plane.config_trial_time_s(
                             probe, scene.system.num_links(),
                             scene.system.medium().ofdm().num_used());
        const auto run = [&](bool shared, util::Rng& rng) {
            scene.system.apply(scene.array_id, initial);
            return shared ? scene.system.optimize_multilink(
                                scene.array_id, c.objective, c.searcher,
                                plane, budget_s, rng, c.threads)
                          : scene.system.optimize_fast(
                                scene.array_id, c.objective, c.searcher,
                                plane, budget_s, rng, c.threads);
        };
        util::Rng fast_rng(5), shared_rng(5);
        const SearchResult fast = run(false, fast_rng).search;
        const SearchResult shared = run(true, shared_rng).search;
        const std::string label = std::string(scene.name) + " / " +
                                  c.objective.name() + " / " +
                                  c.searcher.name() + " / " +
                                  std::to_string(c.threads) + " threads";
        EXPECT_GT(fast.evaluations, 0u) << label;
        EXPECT_EQ(fast.best_config, shared.best_config) << label;
        EXPECT_EQ(fast.best_score, shared.best_score) << label;
        EXPECT_EQ(fast.best_score_remeasured, shared.best_score_remeasured)
            << label;
        EXPECT_EQ(fast.evaluations, shared.evaluations) << label;
        EXPECT_TRUE(fast_rng.engine() == shared_rng.engine()) << label;
    }
}

// A one-term composite is a single-link objective: optimize_fast scores
// it through the same fused term path over the same one-member basis as
// MinSnrObjective — one link sounded per candidate, not all 32 — so the
// two land on the same winner, scores, evaluation count and rng state.
// The masked row pairs a one-term spec carrying the wideband RU mask
// with MaskedSnrObjective.
TEST(MultiLinkSearch, OneTermSpecMatchesSingleLinkObjective) {
    MultiLinkScenario multi = make_multi_link_scenario(302);
    WidebandScenario wide = make_wideband_scenario(11);
    struct Scene {
        System& system;
        std::size_t array_id;
    };
    Scene scenes[] = {{multi.system, multi.array_id},
                      {wide.system, wide.array_id}};

    const auto one_term = MultiLinkProblem()
                              .reduce(Reduce::kMinSnr)
                              .serve(5)
                              .build("one-term");
    const control::MinSnrObjective min_snr(5);
    FusedSpec masked_spec;
    masked_spec.terms.push_back({0, Reduce::kMinSnr});
    masked_spec.mask = &wide.mask;
    const MultiLinkObjective masked_one_term(masked_spec, "masked-one-term");
    const control::MaskedSnrObjective masked(wide.mask, Reduce::kMinSnr);
    const GreedyCoordinateDescent greedy;
    const MajorityVoteSearcher vote(16);

    struct Case {
        std::size_t scene;
        const control::Objective& spec;
        const control::Objective& single;
        const control::Searcher& searcher;
        std::size_t threads;
    };
    std::vector<Case> cases;
    for (const control::Searcher* searcher :
         {static_cast<const control::Searcher*>(&greedy),
          static_cast<const control::Searcher*>(&vote)})
        for (const std::size_t threads : {1u, 3u}) {
            cases.push_back({0, *one_term, min_snr, *searcher, threads});
            cases.push_back({1, masked_one_term, masked, *searcher, threads});
        }

    const ControlPlaneModel plane = ControlPlaneModel::fast();
    for (const Case& c : cases) {
        Scene& scene = scenes[c.scene];
        const surface::Config initial =
            scene.system.medium().array(scene.array_id).current_config();
        control::SetConfig probe;
        probe.config = initial;
        const double budget_s =
            24.0 * plane.config_trial_time_s(
                       probe, scene.system.num_links(),
                       scene.system.medium().ofdm().num_used());
        const auto run = [&](const control::Objective& objective,
                             util::Rng& rng) {
            scene.system.apply(scene.array_id, initial);
            return scene.system
                .optimize_fast(scene.array_id, objective, c.searcher, plane,
                               budget_s, rng, c.threads)
                .search;
        };
        util::Rng spec_rng(5), single_rng(5);
        const SearchResult spec = run(c.spec, spec_rng);
        const SearchResult single = run(c.single, single_rng);
        const std::string label = c.spec.name() + " / " +
                                  c.searcher.name() + " / " +
                                  std::to_string(c.threads) + " threads";
        EXPECT_GT(single.evaluations, 0u) << label;
        EXPECT_EQ(spec.best_config, single.best_config) << label;
        EXPECT_EQ(spec.best_score, single.best_score) << label;
        EXPECT_EQ(spec.best_score_remeasured, single.best_score_remeasured)
            << label;
        EXPECT_EQ(spec.evaluations, single.evaluations) << label;
        EXPECT_TRUE(spec_rng.engine() == single_rng.engine()) << label;
    }
}

// Composite presets ride the existing wire format: selectors >= 3
// validate against the live scene, and every preset runs through
// optimize_fast — a reply equals the direct call with the same seed.
TEST(MultiLinkService, PresetsValidateAndOptimize) {
    MultiLinkScenario scenario = make_multi_link_scenario(5, small_params());
    ServeConfig config;
    config.threads = 1;
    control::ServiceEngine engine =
        make_service_engine(scenario.system, config);

    control::OptimizeRequest req;
    req.array_id = 0;
    req.searcher =
        static_cast<std::uint8_t>(control::ServiceSearcher::kGreedy);
    for (const auto preset : {control::ServiceObjective::kMaxMinFair,
                              control::ServiceObjective::kSumMean,
                              control::ServiceObjective::kQosFloor,
                              control::ServiceObjective::kNullVictim}) {
        req.objective = static_cast<std::uint8_t>(preset);
        EXPECT_TRUE(engine.validate(req))
            << "preset " << static_cast<int>(preset);
    }
    req.objective = 200;
    EXPECT_FALSE(engine.validate(req));

    // One composite cycle end to end.
    req.objective =
        static_cast<std::uint8_t>(control::ServiceObjective::kMaxMinFair);
    const control::EngineResult result = engine.optimize(req, 5e-3);
    EXPECT_TRUE(result.ok);
    EXPECT_GT(result.evaluations, 0u);

    // A composite and a single-link preset reply exactly what a direct
    // optimize_fast call with the engine's seed returns: score,
    // evaluations and the configuration left applied.
    req.link_id = 1;
    for (const auto preset : {control::ServiceObjective::kMaxMinFair,
                              control::ServiceObjective::kMinSnr}) {
        req.objective = static_cast<std::uint8_t>(preset);
        MultiLinkScenario served =
            make_multi_link_scenario(5, small_params());
        const control::EngineResult reply =
            make_service_engine(served.system, config).optimize(req, 5e-3);

        MultiLinkScenario direct =
            make_multi_link_scenario(5, small_params());
        const auto objective =
            preset == control::ServiceObjective::kMinSnr
                ? std::unique_ptr<control::Objective>(
                      std::make_unique<control::MinSnrObjective>(1))
                : control::make_max_min_objective(direct.num_links);
        util::Rng rng(config.seed);
        const control::OptimizationOutcome outcome =
            direct.system.optimize_fast(0, *objective,
                                        GreedyCoordinateDescent(),
                                        config.plane, 5e-3, rng,
                                        config.threads);
        const std::string label =
            "preset " + std::to_string(static_cast<int>(preset));
        EXPECT_TRUE(reply.ok) << label;
        EXPECT_EQ(reply.best_score, outcome.search.best_score_remeasured)
            << label;
        EXPECT_EQ(reply.evaluations, outcome.search.evaluations) << label;
        EXPECT_EQ(served.system.medium().array(0).current_config(),
                  direct.system.medium().array(0).current_config())
            << label;
    }

    // Nulling needs a victim AND a served link: a single-link scene must
    // reject the preset at validation.
    LinkScenario single = make_link_scenario(5, /*line_of_sight=*/false);
    control::ServiceEngine single_engine =
        make_service_engine(single.system, config);
    req.objective =
        static_cast<std::uint8_t>(control::ServiceObjective::kNullVictim);
    req.link_id = 0;
    EXPECT_FALSE(single_engine.validate(req));
    req.objective =
        static_cast<std::uint8_t>(control::ServiceObjective::kMinSnr);
    EXPECT_TRUE(single_engine.validate(req));
}

}  // namespace
}  // namespace press::core
