#include "control/search.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace press::control {

namespace {

/// The one search bookkeeper: scores candidate groups through a
/// BatchEvalFn (or one element's states through a CoordinateEvalFn) and
/// folds them into the result in proposal order, so the outcome is
/// independent of how the callee parallelizes a batch.
class BatchTracker {
public:
    BatchTracker(const BatchEvalFn& eval, std::size_t max_evals,
                 const StopFn& stop)
        : eval_(eval), max_evals_(max_evals), stop_(stop) {}

    bool exhausted() const {
        return result_.evaluations >= max_evals_ || (stop_ && stop_());
    }

    std::size_t evaluations() const { return result_.evaluations; }
    std::size_t remaining() const {
        return max_evals_ - std::min(result_.evaluations, max_evals_);
    }

    /// Scores up to remaining() candidates from `batch` (truncating the
    /// tail if the budget runs short) and returns the scores actually
    /// produced — shorter than the proposal when the budget truncated it
    /// or a stop cut it.
    std::vector<double> evaluate(std::vector<surface::Config> batch) {
        PRESS_EXPECTS(!exhausted(), "evaluation budget exceeded");
        if (batch.size() > remaining()) batch.resize(remaining());
        return fold(eval_(batch), batch.size(),
                    [&](std::size_t i) { result_.best_config = batch[i]; });
    }

    /// A one-candidate batch: never truncated (the tracker is not
    /// exhausted) and never cut (a cut reply keeps its first score).
    double evaluate_one(const surface::Config& c) {
        return evaluate(std::vector<surface::Config>{c})[0];
    }

    /// Coordinate-sweep counterpart of evaluate(): scores up to
    /// remaining() states of `element` over `base` through a
    /// CoordinateEvalFn.
    std::vector<double> evaluate_coordinate(const CoordinateEvalFn& coord,
                                            const surface::Config& base,
                                            std::size_t element,
                                            std::vector<int> states) {
        PRESS_EXPECTS(!exhausted(), "evaluation budget exceeded");
        if (states.size() > remaining()) states.resize(remaining());
        return fold(coord(base, element, states), states.size(),
                    [&](std::size_t i) {
                        result_.best_config = base;
                        result_.best_config[element] = states[i];
                    });
    }

    SearchResult take() { return std::move(result_); }

private:
    /// Folds the scores of the first scores.size() of `proposed`
    /// candidates; `set_best(i)` stores candidate i as the best config.
    /// A reply may be short only when it is non-empty and `stop` holds
    /// after it — the evaluator ended the batch on the deadline.
    template <class SetBest>
    std::vector<double> fold(std::vector<double> scores,
                             std::size_t proposed, const SetBest& set_best) {
        PRESS_EXPECTS(scores.size() == proposed ||
                          (!scores.empty() && scores.size() < proposed &&
                           stop_ && stop_()),
                      "evaluator returned a mismatched score count");
        for (std::size_t i = 0; i < scores.size(); ++i) {
            ++result_.evaluations;
            if (result_.trajectory.empty() ||
                scores[i] > result_.best_score) {
                result_.best_score = scores[i];
                set_best(i);
            }
            result_.trajectory.push_back(result_.best_score);
        }
        return scores;
    }

    const BatchEvalFn& eval_;
    std::size_t max_evals_;
    const StopFn& stop_;
    SearchResult result_;
};

/// FNV-1a over element states, for memoizing scored configurations.
struct ConfigHash {
    std::size_t operator()(const surface::Config& c) const {
        std::uint64_t h = 0xCBF29CE484222325ull;
        for (int v : c) {
            h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
            h *= 0x100000001B3ull;
        }
        return static_cast<std::size_t>(h);
    }
};

using ScoreMemo = std::unordered_map<surface::Config, double, ConfigHash>;

/// Memo sizing for the greedy descent at large element counts: each entry
/// owns a full Config (4 bytes per element plus node overhead), so at
/// 4,000 elements a few thousand entries already cost tens of MiB. The
/// cap bounds the table to a fixed memory budget; reserve()ing the result
/// up front means the bucket array never rehashes mid-search. Past the
/// cap revisited configurations are re-measured (costing budget, never
/// memory) — at massive N revisits are vanishingly rare anyway.
std::size_t memo_entry_cap(std::size_t num_elements, std::size_t max_evals) {
    constexpr std::size_t kMemoBudgetBytes = 48ull << 20;
    const std::size_t entry_bytes =
        sizeof(std::pair<const surface::Config, double>) +
        num_elements * sizeof(int) + 4 * sizeof(void*);
    const std::size_t cap =
        std::max<std::size_t>(64, kMemoBudgetBytes / entry_bytes);
    return std::min(cap, max_evals + 1);
}

surface::Config random_config(const surface::ConfigSpace& space,
                              util::Rng& rng) {
    surface::Config c(space.num_elements());
    for (std::size_t i = 0; i < c.size(); ++i)
        c[i] = static_cast<int>(
            rng.uniform_int(0, space.radices()[i] - 1));
    return c;
}

}  // namespace

SearchResult Searcher::search(const surface::ConfigSpace& space,
                              const EvalFn& eval, std::size_t max_evals,
                              util::Rng& rng, const StopFn& stop) const {
    // Score each proposed batch one candidate at a time and end it at the
    // first candidate after which `stop` holds: the tracker takes the
    // short reply as the batch's end, so no round overruns the deadline.
    const BatchEvalFn one_at_a_time =
        [&eval, &stop](const std::vector<surface::Config>& batch) {
            std::vector<double> scores;
            scores.reserve(batch.size());
            for (const surface::Config& c : batch) {
                scores.push_back(eval(c));
                if (scores.size() < batch.size() && stop && stop()) break;
            }
            return scores;
        };
    return search_batched(space, one_at_a_time, CoordinateEvalFn{},
                          max_evals, rng, stop, 1);
}

SearchResult Searcher::search_batched(const surface::ConfigSpace& space,
                                      const BatchEvalFn& eval,
                                      std::size_t max_evals, util::Rng& rng,
                                      const StopFn& stop,
                                      std::size_t batch_hint) const {
    return search_batched(space, eval, CoordinateEvalFn{}, max_evals, rng,
                          stop, batch_hint);
}

SearchResult ExhaustiveSearcher::search_batched(
    const surface::ConfigSpace& space, const BatchEvalFn& eval,
    const CoordinateEvalFn& coordinate, std::size_t max_evals,
    util::Rng& rng, const StopFn& stop, std::size_t batch_hint) const {
    (void)coordinate;
    (void)rng;
    PRESS_EXPECTS(max_evals >= 1, "need a positive budget");
    BatchTracker t(eval, max_evals, stop);
    const std::uint64_t n = space.size();
    const std::uint64_t chunk = std::max<std::uint64_t>(batch_hint, 1);
    std::uint64_t i = 0;
    while (i < n && !t.exhausted()) {
        const std::uint64_t take =
            std::min({chunk, n - i,
                      static_cast<std::uint64_t>(t.remaining())});
        std::vector<surface::Config> batch;
        batch.reserve(static_cast<std::size_t>(take));
        for (std::uint64_t j = 0; j < take; ++j)
            batch.push_back(space.at(i + j));
        t.evaluate(std::move(batch));
        i += take;
    }
    return t.take();
}

SearchResult RandomSearcher::search_batched(
    const surface::ConfigSpace& space, const BatchEvalFn& eval,
    const CoordinateEvalFn& coordinate, std::size_t max_evals,
    util::Rng& rng, const StopFn& stop, std::size_t batch_hint) const {
    (void)coordinate;
    (void)batch_hint;
    PRESS_EXPECTS(max_evals >= 1, "need a positive budget");
    BatchTracker t(eval, max_evals, stop);
    while (!t.exhausted()) t.evaluate_one(random_config(space, rng));
    return t.take();
}

SearchResult GreedyCoordinateDescent::search_batched(
    const surface::ConfigSpace& space, const BatchEvalFn& eval,
    const CoordinateEvalFn& coordinate, std::size_t max_evals,
    util::Rng& rng, const StopFn& stop, std::size_t batch_hint) const {
    (void)batch_hint;  // the sweep's natural batch is one element's states
    PRESS_EXPECTS(max_evals >= 1, "need a positive budget");
    BatchTracker t(eval, max_evals, stop);
    ScoreMemo memo;
    const std::size_t memo_cap =
        memo_entry_cap(space.num_elements(), max_evals);
    memo.reserve(memo_cap);
    const auto memoize = [&memo, memo_cap](surface::Config c, double s) {
        if (memo.size() < memo_cap) memo.emplace(std::move(c), s);
    };
    // Per-state scores of the element being swept; the incumbent state
    // and unscored ones hold -inf, which never improves on anything.
    constexpr double kUnscored = -std::numeric_limits<double>::infinity();
    std::vector<double> state_scores;
    std::vector<int> fresh_states;
    while (!t.exhausted()) {
        // One restart pass of the descent; nested under the caller's
        // optimize span, so a trace shows how rounds split the budget.
        obs::TraceSpan round_span("control.search.round");
        const std::size_t evals_at_restart = t.evaluations();
        surface::Config current = random_config(space, rng);
        double current_score;
        if (auto it = memo.find(current); it != memo.end()) {
            current_score = it->second;
        } else {
            current_score = t.evaluate_one(current);
            memoize(current, current_score);
        }
        bool improved = true;
        while (improved && !t.exhausted()) {
            improved = false;
            for (std::size_t e = 0;
                 e < space.num_elements() && !t.exhausted(); ++e) {
                const int original = current[e];
                // Memoized alternatives are free; unseen ones become the
                // batch, in ascending state order. With a coordinate hook
                // the candidate configurations are never materialized —
                // the callee reconstructs them from (base, element,
                // state).
                const int radix = space.radices()[e];
                state_scores.assign(static_cast<std::size_t>(radix), kUnscored);
                fresh_states.clear();
                std::vector<surface::Config> batch;
                for (int s = 0; s < radix; ++s) {
                    if (s == original) continue;
                    current[e] = s;
                    if (auto it = memo.find(current); it != memo.end()) {
                        state_scores[static_cast<std::size_t>(s)] = it->second;
                    } else {
                        fresh_states.push_back(s);
                        if (!coordinate) batch.push_back(current);
                    }
                }
                current[e] = original;
                if (!fresh_states.empty()) {
                    const std::vector<double> scores =
                        coordinate ? t.evaluate_coordinate(coordinate,
                                                           current, e,
                                                           fresh_states)
                                   : t.evaluate(std::move(batch));
                    // scores may be shorter than the proposal when the
                    // budget truncated the tail or a stop cut it; either
                    // leaves the tracker exhausted, ending the descent.
                    for (std::size_t i = 0; i < scores.size(); ++i) {
                        surface::Config scored = current;
                        scored[e] = fresh_states[i];
                        memoize(std::move(scored), scores[i]);
                        state_scores[static_cast<std::size_t>(
                            fresh_states[i])] = scores[i];
                    }
                }
                // Memo hits and fresh scores fold in ascending state
                // order, so the first strict improvement wins exact ties.
                int best_state = original;
                double best_score = current_score;
                for (int s = 0; s < radix; ++s) {
                    const double score =
                        state_scores[static_cast<std::size_t>(s)];
                    if (score > best_score) {
                        best_score = score;
                        best_state = s;
                    }
                }
                if (best_state != original) {
                    current[e] = best_state;
                    current_score = best_score;
                    improved = true;
                }
            }
        }
        // Random restart when a local optimum is reached with budget left.
        // If the whole restart pass rode the memo (no fresh evaluations),
        // the reachable region is already scored — stop rather than spin.
        if (t.evaluations() == evals_at_restart) break;
    }
    return t.take();
}

SimulatedAnnealingSearcher::SimulatedAnnealingSearcher(double initial_temp,
                                                       double cooling)
    : initial_temp_(initial_temp), cooling_(cooling) {
    PRESS_EXPECTS(initial_temp > 0.0, "temperature must be positive");
    PRESS_EXPECTS(cooling > 0.0 && cooling < 1.0, "cooling must be in (0,1)");
}

SearchResult SimulatedAnnealingSearcher::search_batched(
    const surface::ConfigSpace& space, const BatchEvalFn& eval,
    const CoordinateEvalFn& coordinate, std::size_t max_evals,
    util::Rng& rng, const StopFn& stop, std::size_t batch_hint) const {
    (void)coordinate;
    (void)batch_hint;
    PRESS_EXPECTS(max_evals >= 1, "need a positive budget");
    BatchTracker t(eval, max_evals, stop);
    if (t.exhausted()) return t.take();
    surface::Config current = random_config(space, rng);
    double current_score = t.evaluate_one(current);
    double temp = initial_temp_;
    while (!t.exhausted()) {
        // Mutate one element to a different state (when it has one).
        surface::Config candidate = current;
        const std::size_t e = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(space.num_elements()) - 1));
        const int radix = space.radices()[e];
        if (radix > 1) {
            int s = static_cast<int>(rng.uniform_int(0, radix - 2));
            if (s >= candidate[e]) ++s;
            candidate[e] = s;
        }
        const double score = t.evaluate_one(candidate);
        const double delta = score - current_score;
        if (delta >= 0.0 ||
            rng.chance(std::exp(std::max(delta / temp, -50.0)))) {
            current = candidate;
            current_score = score;
        }
        temp = std::max(temp * cooling_, 1e-3);
    }
    return t.take();
}

GeneticSearcher::GeneticSearcher(std::size_t population,
                                 double mutation_rate)
    : population_(population), mutation_rate_(mutation_rate) {
    PRESS_EXPECTS(population >= 4, "population must be at least 4");
    PRESS_EXPECTS(mutation_rate >= 0.0 && mutation_rate <= 1.0,
                  "mutation rate must be a probability");
}

SearchResult GeneticSearcher::search_batched(
    const surface::ConfigSpace& space, const BatchEvalFn& eval,
    const CoordinateEvalFn& coordinate, std::size_t max_evals,
    util::Rng& rng, const StopFn& stop, std::size_t batch_hint) const {
    (void)coordinate;
    (void)batch_hint;
    PRESS_EXPECTS(max_evals >= 1, "need a positive budget");
    BatchTracker t(eval, max_evals, stop);

    struct Individual {
        surface::Config config;
        double fitness = 0.0;
    };
    std::vector<Individual> pop;
    for (std::size_t i = 0; i < population_ && !t.exhausted(); ++i) {
        Individual ind{random_config(space, rng), 0.0};
        ind.fitness = t.evaluate_one(ind.config);
        pop.push_back(std::move(ind));
    }

    auto tournament = [&]() -> const Individual& {
        const Individual& a = pop[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
        const Individual& b = pop[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pop.size()) - 1))];
        return a.fitness >= b.fitness ? a : b;
    };

    while (!t.exhausted() && !pop.empty()) {
        // Uniform crossover of two tournament winners, then mutation.
        const Individual& pa = tournament();
        const Individual& pb = tournament();
        Individual child;
        child.config.resize(space.num_elements());
        for (std::size_t e = 0; e < space.num_elements(); ++e) {
            child.config[e] =
                rng.chance(0.5) ? pa.config[e] : pb.config[e];
            if (rng.chance(mutation_rate_)) {
                child.config[e] = static_cast<int>(
                    rng.uniform_int(0, space.radices()[e] - 1));
            }
        }
        child.fitness = t.evaluate_one(child.config);
        // Steady-state replacement of the current worst individual.
        auto worst = std::min_element(
            pop.begin(), pop.end(),
            [](const Individual& x, const Individual& y) {
                return x.fitness < y.fitness;
            });
        if (child.fitness > worst->fitness) *worst = std::move(child);
    }
    return t.take();
}

MajorityVoteSearcher::MajorityVoteSearcher(std::size_t probes_per_round,
                                           double flip_prob,
                                           double flip_decay,
                                           double min_flip_prob)
    : probes_per_round_(probes_per_round),
      flip_prob_(flip_prob),
      flip_decay_(flip_decay),
      min_flip_prob_(min_flip_prob) {
    PRESS_EXPECTS(probes_per_round >= 1, "need at least one probe per round");
    PRESS_EXPECTS(flip_prob > 0.0 && flip_prob <= 1.0,
                  "flip probability must be in (0, 1]");
    PRESS_EXPECTS(flip_decay > 0.0 && flip_decay <= 1.0,
                  "flip decay must be in (0, 1]");
    PRESS_EXPECTS(min_flip_prob > 0.0 && min_flip_prob <= flip_prob,
                  "min flip probability must be in (0, flip_prob]");
}

SearchResult MajorityVoteSearcher::search_batched(
    const surface::ConfigSpace& space, const BatchEvalFn& eval,
    const CoordinateEvalFn& coordinate, std::size_t max_evals,
    util::Rng& rng, const StopFn& stop, std::size_t batch_hint) const {
    // No coordinate sweeps to route; batch size is the probe count, not
    // the pool hint, so the candidate stream (and every rng draw) is
    // independent of the evaluator's thread count.
    (void)coordinate;
    (void)batch_hint;
    PRESS_EXPECTS(max_evals >= 1, "need a positive budget");
    BatchTracker t(eval, max_evals, stop);
    const std::size_t n = space.num_elements();
    int max_radix = 1;
    for (int r : space.radices()) max_radix = std::max(max_radix, r);

    std::uint64_t rounds = 0;
    std::uint64_t probes_measured = 0;
    std::uint64_t adoptions = 0;
    std::uint64_t element_flips = 0;
    const auto publish = [&]() {
        if (!obs::enabled()) return;
        auto& registry = obs::MetricsRegistry::global();
        registry.counter("control.search.majority.rounds").add(rounds);
        registry.counter("control.search.majority.probes")
            .add(probes_measured);
        registry.counter("control.search.majority.adoptions").add(adoptions);
        registry.counter("control.search.majority.element_flips")
            .add(element_flips);
    };

    if (t.exhausted()) return t.take();
    surface::Config current = random_config(space, rng);
    double current_score = t.evaluate_one(current);

    // Per-(element, state) vote accumulators, cumulative across rounds:
    // one element's signal is a ~1/n sliver of each probe's score, far
    // below one round's sampling noise, so decisions only become reliable
    // when every probe ever measured keeps contributing evidence (this is
    // RFocus's aggregated per-element decision). Later rounds sample the
    // improving incumbent more densely, which weights its states'
    // means upward — reinforcing, not staling, earlier evidence.
    std::vector<double> vote_sum(n * static_cast<std::size_t>(max_radix));
    std::vector<std::uint32_t> vote_count(
        n * static_cast<std::size_t>(max_radix));
    std::vector<surface::Config> probes;
    probes.reserve(probes_per_round_);
    double flip = flip_prob_;

    while (!t.exhausted()) {
        obs::TraceSpan round_span("control.search.round");
        probes.clear();
        for (std::size_t p = 0; p < probes_per_round_; ++p) {
            surface::Config probe = current;
            for (std::size_t e = 0; e < n; ++e) {
                if (space.radices()[e] > 1 && rng.chance(flip)) {
                    probe[e] = static_cast<int>(
                        rng.uniform_int(0, space.radices()[e] - 1));
                }
            }
            probes.push_back(std::move(probe));
        }
        // Keep the proposal list: scores[i] belongs to probes[i], and a
        // truncated or cut tail simply contributes no votes.
        const std::vector<double> scores = t.evaluate(probes);
        ++rounds;
        probes_measured += scores.size();
        // Votes are per-round *deltas* (score minus the round's mean), so
        // the incumbent's round-over-round improvement cancels out of the
        // comparison: without centering, incumbent states — which dominate
        // the later, higher-scoring rounds as flip anneals — would look
        // better than every alternative regardless of their actual merit.
        double round_mean = 0.0;
        for (const double s : scores) round_mean += s;
        round_mean /= static_cast<double>(scores.size());
        for (std::size_t i = 0; i < scores.size(); ++i) {
            for (std::size_t e = 0; e < n; ++e) {
                const std::size_t slot =
                    e * static_cast<std::size_t>(max_radix) +
                    static_cast<std::size_t>(probes[i][e]);
                vote_sum[slot] += scores[i] - round_mean;
                vote_count[slot] += 1;
            }
        }
        if (t.exhausted()) break;

        // Per-element majority: the state with the best mean probe score
        // wins; unsampled states abstain, ties keep the incumbent.
        surface::Config consensus = current;
        for (std::size_t e = 0; e < n; ++e) {
            const std::size_t base =
                e * static_cast<std::size_t>(max_radix);
            const std::size_t incumbent =
                base + static_cast<std::size_t>(current[e]);
            double best_mean =
                vote_count[incumbent] > 0
                    ? vote_sum[incumbent] / vote_count[incumbent]
                    : -std::numeric_limits<double>::infinity();
            for (int s = 0; s < space.radices()[e]; ++s) {
                const std::size_t slot =
                    base + static_cast<std::size_t>(s);
                if (vote_count[slot] == 0 || slot == incumbent) continue;
                const double mean = vote_sum[slot] / vote_count[slot];
                if (mean > best_mean) {
                    best_mean = mean;
                    consensus[e] = s;
                }
            }
        }
        if (consensus != current) {
            const double consensus_score = t.evaluate_one(consensus);
            if (consensus_score > current_score) {
                ++adoptions;
                for (std::size_t e = 0; e < n; ++e)
                    if (consensus[e] != current[e]) ++element_flips;
                current = std::move(consensus);
                current_score = consensus_score;
            }
        }
        flip = std::max(flip * flip_decay_, min_flip_prob_);
    }
    publish();
    return t.take();
}

RandomizedPartitionSearcher::RandomizedPartitionSearcher(
    std::size_t initial_groups, std::size_t max_groups)
    : initial_groups_(initial_groups), max_groups_(max_groups) {
    PRESS_EXPECTS(initial_groups >= 1, "need at least one group");
    PRESS_EXPECTS(max_groups >= initial_groups,
                  "max groups must be at least the initial group count");
}

SearchResult RandomizedPartitionSearcher::search_batched(
    const surface::ConfigSpace& space, const BatchEvalFn& eval,
    const CoordinateEvalFn& coordinate, std::size_t max_evals,
    util::Rng& rng, const StopFn& stop, std::size_t batch_hint) const {
    (void)coordinate;
    (void)batch_hint;
    PRESS_EXPECTS(max_evals >= 1, "need a positive budget");
    BatchTracker t(eval, max_evals, stop);
    const std::size_t n = space.num_elements();

    std::uint64_t rounds = 0;
    std::uint64_t accepts = 0;
    const auto publish = [&]() {
        if (!obs::enabled()) return;
        auto& registry = obs::MetricsRegistry::global();
        registry.counter("control.search.partition.rounds").add(rounds);
        registry.counter("control.search.partition.accepts").add(accepts);
    };

    if (t.exhausted()) return t.take();
    surface::Config current = random_config(space, rng);
    double current_score = t.evaluate_one(current);

    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    const std::size_t finest = std::min(max_groups_, std::max<std::size_t>(
                                                         n, 1));
    std::size_t groups = std::min(initial_groups_, finest);
    std::size_t stale_at_finest = 0;
    std::vector<surface::Config> candidates;

    while (!t.exhausted()) {
        obs::TraceSpan round_span("control.search.round");
        // Fisher-Yates shuffle: a fresh random partition every round.
        for (std::size_t i = n; i > 1; --i) {
            const std::size_t j = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
            std::swap(perm[i - 1], perm[j]);
        }
        candidates.clear();
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t begin = g * n / groups;
            const std::size_t end = (g + 1) * n / groups;
            if (begin == end) continue;
            surface::Config candidate = current;
            for (std::size_t i = begin; i < end; ++i) {
                const std::size_t e = perm[i];
                const int radix = space.radices()[e];
                if (radix <= 1) continue;
                int s = static_cast<int>(rng.uniform_int(0, radix - 2));
                if (s >= candidate[e]) ++s;
                candidate[e] = s;
            }
            candidates.push_back(std::move(candidate));
        }
        if (candidates.empty()) break;
        const std::vector<double> scores = t.evaluate(candidates);
        ++rounds;
        std::size_t best_i = candidates.size();
        double best = current_score;
        for (std::size_t i = 0; i < scores.size(); ++i) {
            if (scores[i] > best) {
                best = scores[i];
                best_i = i;
            }
        }
        if (best_i < candidates.size()) {
            current = candidates[best_i];
            current_score = best;
            ++accepts;
            stale_at_finest = 0;
        } else if (groups < finest) {
            groups = std::min(groups * 2, finest);
        } else if (++stale_at_finest >= 8) {
            // Single-element granularity has gone stale for several
            // rounds: a local optimum under this move set. Stop rather
            // than spend the rest of the budget re-rolling losers.
            break;
        }
    }
    publish();
    return t.take();
}

void record_search_telemetry(const std::string& searcher_name,
                             const SearchResult& result) {
    if (!obs::enabled()) return;
    auto& registry = obs::MetricsRegistry::global();
    const std::string prefix = "control.search." + searcher_name;
    registry.counter(prefix + ".runs").add();
    registry.counter(prefix + ".evaluations").add(result.evaluations);
    registry.gauge(prefix + ".best_score").set(result.best_score);
    if (result.remeasure_evals > 0) {
        registry.gauge(prefix + ".best_score_remeasured")
            .set(result.best_score_remeasured);
        registry.counter(prefix + ".remeasure_evals")
            .add(result.remeasure_evals);
    }
    registry.series(prefix + ".best_score").append(result.trajectory);
}

std::vector<std::unique_ptr<Searcher>> all_searchers() {
    std::vector<std::unique_ptr<Searcher>> out;
    out.push_back(std::make_unique<ExhaustiveSearcher>());
    out.push_back(std::make_unique<RandomSearcher>());
    out.push_back(std::make_unique<GreedyCoordinateDescent>());
    out.push_back(std::make_unique<SimulatedAnnealingSearcher>());
    out.push_back(std::make_unique<GeneticSearcher>());
    out.push_back(std::make_unique<MajorityVoteSearcher>());
    out.push_back(std::make_unique<RandomizedPartitionSearcher>());
    return out;
}

}  // namespace press::control
