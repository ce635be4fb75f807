// Optimization objectives over channel observations.
//
// Each of the paper's three applications (Section 1) becomes an Objective:
// link enhancement maximizes worst-subcarrier SNR (or MCS throughput),
// network harmonization rewards complementary frequency selectivity across
// links while punishing interference channels, and large-MIMO improvement
// minimizes the channel matrix condition number.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "phy/ru.hpp"

namespace press::control {

/// What a controller sees after measuring under one configuration.
struct Observation {
    /// Per observed link, the per-used-subcarrier SNR in dB.
    std::vector<std::vector<double>> link_snr_db;
    /// Per-subcarrier MIMO condition numbers in dB (empty when the scenario
    /// is not MIMO).
    std::vector<double> mimo_condition_db;
};

/// Per-subcarrier reduction of one link's SNR span to a scalar (dB).
enum class Reduce { kMinSnr, kMeanSnr };

/// One link's term in a fused objective: the link's per-subcarrier SNR
/// span reduced through `reduce` to a value v (dB), turned into a utility
///
///     u = weight * v - qos_weight * max(0, qos_floor_db - v)
///
/// The hinge term charges nothing while the link clears its QoS floor
/// and a linear penalty (slope qos_weight) per dB of shortfall below
/// it; the defaults (floor -inf, qos_weight 0) disable it, and a default
/// term's utility is v bit for bit. Negative `weight` turns the term into
/// an interference-nulling objective: the combined score improves as the
/// victim link's SNR drops.
struct LinkTerm {
    std::size_t link = 0;
    Reduce reduce = Reduce::kMeanSnr;
    double weight = 1.0;
    double qos_floor_db = -std::numeric_limits<double>::infinity();
    double qos_weight = 0.0;
};

/// The one fused advertisement: an objective whose score is per-link
/// terms combined by a weighted sum or by max-min (maximize the worst
/// term utility — fairness / harmonization), optionally over only the
/// active tones of an RU mask. An owner of the factored channel basis
/// (System::optimize_fast) scores it straight from the accumulated SoA
/// responses — no Observation materialized. A one-term spec is a
/// single-link objective (MinSnrObjective and friends) and its score is
/// the term's reduced SNR bit for bit.
struct FusedSpec {
    enum class Combine { kWeightedSum, kMaxMin };
    std::vector<LinkTerm> terms;
    Combine combine = Combine::kWeightedSum;
    /// Optional RU mask (wideband preamble puncturing, DESIGN.md §15):
    /// when non-null, every term reduces over only the mask's active
    /// tones, and a cache-backed owner restricts both the basis
    /// accumulation and the sounding to the tiles the mask touches. The
    /// pointer must outlive the optimization run (objectives point it at
    /// a mask they own).
    const phy::RuMask* mask = nullptr;
};

/// A figure of merit; larger is better.
class Objective {
public:
    virtual ~Objective() = default;
    virtual double score(const Observation& obs) const = 0;
    /// The objective's fused shape, or nullptr (the default) for the
    /// general Observation path. Overriders guarantee score(obs) equals
    /// the combinator applied to the per-term reductions up to reduction
    /// association (min: exactly; mean: blocked vs sequential ulps); the
    /// returned spec stays owned by the objective.
    virtual const FusedSpec* fused_spec() const { return nullptr; }
    virtual std::string name() const = 0;
};

/// An objective defined by its FusedSpec, scored the same way through
/// the general Observation path (score) and the fused path: composite
/// multi-link objectives (see MultiLinkProblem) and, as one-term specs,
/// the single-link SNR objectives below.
class MultiLinkObjective : public Objective {
public:
    explicit MultiLinkObjective(FusedSpec spec,
                                std::string label = "multi-link");
    double score(const Observation& obs) const override;
    const FusedSpec* fused_spec() const override { return &spec_; }
    std::string name() const override { return label_; }

    const FusedSpec& spec() const { return spec_; }

    /// One term's utility for an already-reduced SNR value (dB): the
    /// weighted value minus the QoS hinge penalty. Shared by the general
    /// path and the fused scorer so the two cannot drift.
    static double term_utility(const LinkTerm& term, double value_db);
    /// Folds term `t`'s utility into the running combined score `acc`
    /// (term order: the first term seeds it, then sum left-to-right or
    /// running min). Shared by both scorers; never adds to 0.0, so a
    /// one-term score keeps its utility's bits, sign of zero included.
    static double fold(const FusedSpec& spec, std::size_t t, double acc,
                       double utility);

protected:
    FusedSpec spec_;

private:
    std::string label_;
};

/// Maximizes the minimum per-subcarrier SNR of one link (removes nulls).
class MinSnrObjective : public MultiLinkObjective {
public:
    explicit MinSnrObjective(std::size_t link = 0);
};

/// Maximizes the mean per-subcarrier SNR of one link.
class MeanSnrObjective : public MultiLinkObjective {
public:
    explicit MeanSnrObjective(std::size_t link = 0);
};

/// Per-RU masked single-link objective: the min or mean per-subcarrier
/// SNR over ONLY the active tones of an RU mask (996-tone and wider
/// numerologies schedule per-RU and puncture preamble-incumbent RUs; see
/// docs/OBJECTIVES.md). A one-term spec carrying the mask, so
/// System::optimize_fast sounds and reduces only the active tones and
/// bounds the basis accumulation to the subcarrier tiles the mask
/// intersects. The general Observation path reads the same tones out of
/// the full-width SNR span (min matches the fused scorer exactly, mean
/// up to blocked-vs-sequential association ulps; the noise draws differ
/// because the fused path sounds only active tones). Not copyable: the
/// spec points at the mask this object owns.
class MaskedSnrObjective : public MultiLinkObjective {
public:
    MaskedSnrObjective(phy::RuMask mask, Reduce reduce,
                       std::size_t link = 0);
    MaskedSnrObjective(const MaskedSnrObjective&) = delete;
    MaskedSnrObjective& operator=(const MaskedSnrObjective&) = delete;

    const phy::RuMask& mask() const { return mask_; }

private:
    phy::RuMask mask_;
};

/// Maximizes the selected-MCS PHY throughput of one link (the paper's
/// "greater bit rate ... to higher layers").
class ThroughputObjective : public Objective {
public:
    explicit ThroughputObjective(std::size_t link = 0) : link_(link) {}
    double score(const Observation& obs) const override;
    std::string name() const override { return "max-throughput"; }

private:
    std::size_t link_;
};

/// A weighted sum of band-average SNRs across links. Building block for
/// harmonization and spatial-partitioning goals: positive weights on
/// communication bands, negative on interference bands.
class WeightedBandObjective : public Objective {
public:
    /// One term: mean SNR of link `link` over used subcarriers
    /// [`first_subcarrier`, `last_subcarrier`) scaled by `weight`.
    struct Term {
        std::size_t link = 0;
        std::size_t first_subcarrier = 0;
        std::size_t last_subcarrier = 0;
        double weight = 1.0;
    };

    explicit WeightedBandObjective(std::vector<Term> terms,
                                   std::string label = "weighted-bands");
    double score(const Observation& obs) const override;
    std::string name() const override { return label_; }

private:
    std::vector<Term> terms_;
    std::string label_;
};

/// The Figure-2/Figure-7 harmonization goal for two co-located networks:
/// link 0 should own the lower half of the band and link 1 the upper half.
/// When `interference_links` is true, observations carry four links
/// (comm A, comm B, interference A->B's client, interference B->A's
/// client) and the interference bands are penalized.
std::unique_ptr<Objective> make_harmonization_objective(
    std::size_t num_subcarriers, bool interference_links);

/// Fluent builder for multi-link problems — the entry point for N-link
/// scenes (see docs/OBJECTIVES.md for the full semantics):
///
///     auto objective = MultiLinkProblem()
///         .serve(0).serve(1, /*weight=*/2.0)
///         .qos_floor(2, 10.0, /*qos_weight=*/4.0)
///         .null(3)
///         .max_min()
///         .build("my-scene");
class MultiLinkProblem {
public:
    /// Adds a fully-specified term.
    MultiLinkProblem& add(LinkTerm term);
    /// Serve `link`: weight * mean-SNR, no floor.
    MultiLinkProblem& serve(std::size_t link, double weight = 1.0);
    /// Serve `link` with a QoS floor: mean-SNR plus a hinge penalty of
    /// `qos_weight` per dB below `floor_db`.
    MultiLinkProblem& qos_floor(std::size_t link, double floor_db,
                                double qos_weight = 1.0);
    /// Null `link`: its mean SNR enters with weight -`weight`, so the
    /// score improves as the victim's received power drops.
    MultiLinkProblem& null(std::size_t link, double weight = 1.0);
    /// Combine terms as a weighted sum (the default).
    MultiLinkProblem& weighted_sum();
    /// Combine terms max-min: maximize the worst term utility.
    MultiLinkProblem& max_min();
    /// Per-term reduction for subsequently added serve/qos_floor/null
    /// terms (default kMeanSnr; kMinSnr optimizes worst subcarriers).
    MultiLinkProblem& reduce(Reduce kind);

    std::unique_ptr<Objective> build(std::string label = "multi-link") const;
    const FusedSpec& spec() const { return spec_; }

private:
    FusedSpec spec_;
    Reduce reduce_ = Reduce::kMeanSnr;
};

/// Max-min fairness over every link 0..num_links: maximize the worst
/// link's reduced SNR. The harmonization preset.
std::unique_ptr<Objective> make_max_min_objective(
    std::size_t num_links, Reduce reduce = Reduce::kMeanSnr);

/// Sum of per-link mean SNRs over every link (aggregate capacity proxy;
/// tolerates starving individual links).
std::unique_ptr<Objective> make_sum_mean_objective(std::size_t num_links);

/// Sum of per-link mean SNRs where every link also carries a QoS hinge:
/// `qos_weight` dB of penalty per dB any link falls below `floor_db`.
std::unique_ptr<Objective> make_qos_floor_objective(std::size_t num_links,
                                                    double floor_db,
                                                    double qos_weight);

/// Serve every link except `victim` (weight +1 mean SNR) while nulling
/// the victim (weight -victim_weight): the interference-nulling preset.
/// Requires num_links >= 2.
std::unique_ptr<Objective> make_nulling_objective(std::size_t num_links,
                                                  std::size_t victim,
                                                  double victim_weight = 1.0);

/// Minimizes the mean per-subcarrier MIMO condition number (score is its
/// negation so larger remains better).
class ConditionNumberObjective : public Objective {
public:
    double score(const Observation& obs) const override;
    std::string name() const override { return "min-condition-number"; }
};

}  // namespace press::control
