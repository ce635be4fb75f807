// Configuration-space search strategies.
//
// "With N PRESS elements, each having M possible reflection coefficients,
// enumerating the M^N possibilities ... becomes impractical" (Section 4.2).
// Every strategy shares one interface: propose configurations, learn their
// measured score through an evaluation callback, and return the best found
// within an evaluation budget. The controller translates coherence-time
// budgets into evaluation budgets.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "press/config.hpp"
#include "util/rng.hpp"

namespace press::control {

/// Measures one configuration; larger scores are better.
using EvalFn = std::function<double(const surface::Config&)>;

/// Measures a batch of independent configurations; results[i] scores
/// batch[i]. Backed by a BatchEvaluator thread pool when the evaluation is
/// a pure function of the configuration (the factored channel cache), or
/// by a trivial serial loop otherwise.
using BatchEvalFn = std::function<std::vector<double>(
    const std::vector<surface::Config>&)>;

/// Measures every state in `states` for one coordinate: results[i] scores
/// base-with-element=states[i], the rest of `base` held fixed. The
/// coordinate sweep's natural batch — a callee owning the factored cache
/// can serve it through the incremental delta path (base response built
/// once per coordinate, one row-add per candidate) instead of a full
/// gather per candidate. Candidates must consume the same rng streams, in
/// the same order, as the equivalent BatchEvalFn batch would.
using CoordinateEvalFn = std::function<std::vector<double>(
    const surface::Config& base, std::size_t element,
    const std::vector<int>& states)>;

/// Optional early-termination predicate. Lets a controller end a search
/// when simulated wall-clock (not just the evaluation count) runs out —
/// e.g. when control-channel retries have eaten the coherence-time budget.
/// The batched body checks it between batches; the serial entry also
/// checks it between the candidates of a batch (see Searcher::search).
using StopFn = std::function<bool()>;

/// Outcome of a search.
struct SearchResult {
    surface::Config best_config;
    /// Score of best_config as measured when it was first evaluated. With a
    /// noisy EvalFn this is the maximum over noisy samples, so it is biased
    /// high — and memoizing strategies (GreedyCoordinateDescent) never
    /// re-measure a configuration, so a single positive outlier can be
    /// locked in. Use best_score_remeasured for an unbiased estimate.
    double best_score = 0.0;
    /// Unbiased estimate of best_config's quality: the mean of
    /// `remeasure_evals` fresh measurements taken after the search ended
    /// (the search budget is spent on exploration; the confirmation
    /// measurements are priced separately). Filled by callers that own
    /// the evaluation pipeline — Controller::optimize and
    /// System::optimize_fast — not by the strategies; equals best_score
    /// when remeasure_evals is 0.
    double best_score_remeasured = 0.0;
    std::size_t remeasure_evals = 0;
    std::size_t evaluations = 0;
    /// Wall-clock seconds the request waited before its search started.
    /// Filled by owners of a request queue (control::Service); zero for
    /// direct calls. Kept beside compute_s so service p99 latency is
    /// attributable: request latency = queue_wait_s + compute_s.
    double queue_wait_s = 0.0;
    /// Wall-clock seconds the search itself consumed. Filled by the
    /// entry points that own timing (Controller::optimize,
    /// System::optimize_fast), not by the strategies.
    double compute_s = 0.0;
    /// best_score after each evaluation (length == evaluations); lets the
    /// ablation benches plot anytime curves.
    std::vector<double> trajectory;
};

/// Strategy interface. Every strategy has exactly one search body, the
/// coordinate-aware search_batched overload; the other two entries are
/// adapters onto it, so serial and batched callers run the same
/// candidates and the same rng draws by construction. All three stay
/// virtual so a decorator (a timing wrapper, say) can intercept each
/// entry; strategies implement the body alone and unhide the adapters
/// with `using Searcher::search_batched;`.
class Searcher {
public:
    virtual ~Searcher() = default;

    /// Serial entry: runs at most `max_evals` evaluations of `eval` over
    /// `space`, stopping as soon as `stop` (when provided) returns true.
    /// Runs the body with batch_hint 1 and no coordinate hook, scoring
    /// each proposed batch one candidate at a time and ending it at the
    /// first candidate after which `stop` holds — so a strategy whose
    /// rounds are fixed-size batches (majority vote, random partition)
    /// still ends on its deadline, not after the rest of the round.
    virtual SearchResult search(const surface::ConfigSpace& space,
                                const EvalFn& eval, std::size_t max_evals,
                                util::Rng& rng,
                                const StopFn& stop = nullptr) const;

    /// Batched entry without a coordinate hook: forwards to the body with
    /// an empty hook.
    virtual SearchResult search_batched(const surface::ConfigSpace& space,
                                        const BatchEvalFn& eval,
                                        std::size_t max_evals,
                                        util::Rng& rng,
                                        const StopFn& stop = nullptr,
                                        std::size_t batch_hint = 1) const;

    /// The search body. The strategy proposes groups of independent
    /// candidates — never more than the remaining budget — so the caller
    /// can evaluate them concurrently; `batch_hint` is a size suggestion
    /// that only strategies without a natural batch (exhaustive chunks)
    /// follow. Scores are folded into the result in proposal order,
    /// keeping the outcome independent of evaluation concurrency. `stop`
    /// is checked between batches; an evaluator may cut a batch short
    /// only when `stop` holds after the candidates it did score (the
    /// serial entry does exactly that). Strategies whose proposals are
    /// all-states sweeps of one element (GreedyCoordinateDescent) route
    /// those through `coordinate` when it is non-empty and everything
    /// else through `eval`; the hook never changes which candidates run
    /// or which rng streams they consume — only how a candidate's
    /// response is assembled (base-plus-swept-row instead of a full
    /// gather, a different but fixed summation association).
    virtual SearchResult search_batched(const surface::ConfigSpace& space,
                                        const BatchEvalFn& eval,
                                        const CoordinateEvalFn& coordinate,
                                        std::size_t max_evals,
                                        util::Rng& rng,
                                        const StopFn& stop = nullptr,
                                        std::size_t batch_hint = 1) const = 0;

    virtual std::string name() const = 0;
};

/// Exhaustive enumeration in index order (optimal when affordable; the
/// paper's prototype swept all 64 configurations this way). Proposes
/// index-order chunks of `batch_hint` configurations.
class ExhaustiveSearcher : public Searcher {
public:
    using Searcher::search_batched;
    SearchResult search_batched(const surface::ConfigSpace& space,
                                const BatchEvalFn& eval,
                                const CoordinateEvalFn& coordinate,
                                std::size_t max_evals, util::Rng& rng,
                                const StopFn& stop = nullptr,
                                std::size_t batch_hint = 1) const override;
    std::string name() const override { return "exhaustive"; }
};

/// Uniform random sampling without early termination, one candidate per
/// batch.
class RandomSearcher : public Searcher {
public:
    using Searcher::search_batched;
    SearchResult search_batched(const surface::ConfigSpace& space,
                                const BatchEvalFn& eval,
                                const CoordinateEvalFn& coordinate,
                                std::size_t max_evals, util::Rng& rng,
                                const StopFn& stop = nullptr,
                                std::size_t batch_hint = 1) const override;
    std::string name() const override { return "random"; }
};

/// Greedy coordinate descent: sweep elements round-robin, trying every
/// state of one element while others stay fixed; restart from a random
/// configuration when a pass makes no progress. Already-scored
/// configurations are memoized, so revisits (common near local optima and
/// after restarts) consume no evaluation budget; the search ends early if
/// an entire restart pass touches only memoized configurations. Each
/// sweep proposes all unseen alternative states of one element as a
/// batch (routed through `coordinate` when provided; restart seeds still
/// go through `eval`); `batch_hint` is ignored. Memo hits and fresh
/// scores are folded in ascending state order, the first strict
/// improvement winning exact ties.
class GreedyCoordinateDescent : public Searcher {
public:
    using Searcher::search_batched;
    SearchResult search_batched(const surface::ConfigSpace& space,
                                const BatchEvalFn& eval,
                                const CoordinateEvalFn& coordinate,
                                std::size_t max_evals, util::Rng& rng,
                                const StopFn& stop = nullptr,
                                std::size_t batch_hint = 1) const override;
    std::string name() const override { return "greedy-coordinate"; }
};

/// Simulated annealing over single-element mutations with a geometric
/// cooling schedule. Inherently serial: one candidate per batch.
class SimulatedAnnealingSearcher : public Searcher {
public:
    /// `initial_temp` is in score units; `cooling` in (0, 1).
    explicit SimulatedAnnealingSearcher(double initial_temp = 6.0,
                                        double cooling = 0.97);
    using Searcher::search_batched;
    SearchResult search_batched(const surface::ConfigSpace& space,
                                const BatchEvalFn& eval,
                                const CoordinateEvalFn& coordinate,
                                std::size_t max_evals, util::Rng& rng,
                                const StopFn& stop = nullptr,
                                std::size_t batch_hint = 1) const override;
    std::string name() const override { return "annealing"; }

private:
    double initial_temp_;
    double cooling_;
};

/// A compact steady-state genetic algorithm: tournament selection, uniform
/// crossover, per-element mutation. One candidate per batch.
class GeneticSearcher : public Searcher {
public:
    explicit GeneticSearcher(std::size_t population = 16,
                             double mutation_rate = 0.15);
    using Searcher::search_batched;
    SearchResult search_batched(const surface::ConfigSpace& space,
                                const BatchEvalFn& eval,
                                const CoordinateEvalFn& coordinate,
                                std::size_t max_evals, util::Rng& rng,
                                const StopFn& stop = nullptr,
                                std::size_t batch_hint = 1) const override;
    std::string name() const override { return "genetic"; }

private:
    std::size_t population_;
    double mutation_rate_;
};

/// RFocus-style majority voting for massive element counts (Arun &
/// Balakrishnan, "RFocus: Beamforming Using Thousands of Passive
/// Antennas", arXiv:1905.05130). Per round the searcher draws
/// `probes_per_round` random partitions of the current consensus — every
/// element re-randomized with probability flip_prob, annealed by
/// flip_decay down to min_flip_prob — and measures them as ONE batch.
/// Every element then votes: a state's weight is the mean measured score
/// of the probes that held the element in that state, the per-element
/// argmax forms the consensus candidate, and the candidate is measured
/// once and adopted if it improves. Budget per round is probes_per_round
/// + 1 regardless of element count, which is what makes 1,000–4,000
/// two-state elements tractable where per-coordinate sweeps cost O(N)
/// per pass. Never calls ConfigSpace::size(), so it is safe on spaces
/// whose cardinality overflows. Deterministic given the rng; batch_hint
/// is ignored (the probe count fixes the batch), so the outcome is
/// bit-identical for any evaluator thread count.
class MajorityVoteSearcher : public Searcher {
public:
    explicit MajorityVoteSearcher(std::size_t probes_per_round = 64,
                                  double flip_prob = 0.5,
                                  double flip_decay = 0.92,
                                  double min_flip_prob = 0.015625);
    using Searcher::search_batched;
    SearchResult search_batched(const surface::ConfigSpace& space,
                                const BatchEvalFn& eval,
                                const CoordinateEvalFn& coordinate,
                                std::size_t max_evals, util::Rng& rng,
                                const StopFn& stop = nullptr,
                                std::size_t batch_hint = 1) const override;
    std::string name() const override { return "majority-vote"; }

private:
    std::size_t probes_per_round_;
    double flip_prob_;
    double flip_decay_;
    double min_flip_prob_;
};

/// Randomized block descent: each round shuffles the elements into
/// `groups` random contiguous blocks, proposes one candidate per block
/// (every element of the block re-randomized to a different state), and
/// adopts the best improving candidate. Rounds without improvement double
/// the group count (finer perturbations) up to min(max_groups, N); the
/// search ends when the finest granularity goes stale. Large early blocks
/// move measured deltas well above the noise floor — the same reason
/// RFocus perturbs element groups rather than single elements — while the
/// late fine blocks polish. Never calls ConfigSpace::size(); batch_hint
/// is ignored (the group count fixes the batch), so results are
/// bit-identical for any thread count.
class RandomizedPartitionSearcher : public Searcher {
public:
    explicit RandomizedPartitionSearcher(std::size_t initial_groups = 8,
                                         std::size_t max_groups = 256);
    using Searcher::search_batched;
    SearchResult search_batched(const surface::ConfigSpace& space,
                                const BatchEvalFn& eval,
                                const CoordinateEvalFn& coordinate,
                                std::size_t max_evals, util::Rng& rng,
                                const StopFn& stop = nullptr,
                                std::size_t batch_hint = 1) const override;
    std::string name() const override { return "random-partition"; }

private:
    std::size_t initial_groups_;
    std::size_t max_groups_;
};

/// Every strategy, for comparison sweeps. The first five entries keep
/// their historical order (tests and benches index into them); newer
/// strategies append.
std::vector<std::unique_ptr<Searcher>> all_searchers();

/// Folds a finished search into the telemetry registry (no-op when
/// observability is disabled): appends the anytime best-score trajectory
/// to the series `control.search.<searcher_name>.best_score`, bumps
/// `control.search.<searcher_name>.runs`, and adds the evaluation count to
/// `control.search.<searcher_name>.evaluations`. Callers that already hold
/// a SearchResult (Controller, System::optimize_fast) invoke this once per
/// search, so the convergence curves the ablation benches plot are also
/// visible in a plain telemetry export.
void record_search_telemetry(const std::string& searcher_name,
                             const SearchResult& result);

}  // namespace press::control
