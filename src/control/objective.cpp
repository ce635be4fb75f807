#include "control/objective.hpp"

#include <algorithm>

#include "phy/rate.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"

namespace press::control {

namespace {
const std::vector<double>& link_snr(const Observation& obs,
                                    std::size_t link) {
    PRESS_EXPECTS(link < obs.link_snr_db.size(),
                  "observation lacks the requested link");
    PRESS_EXPECTS(!obs.link_snr_db[link].empty(), "empty SNR profile");
    return obs.link_snr_db[link];
}

/// The general path's reduction of one term: sequential min / mean over
/// the whole span, or over only the mask's active tones.
double reduce_span(const std::vector<double>& snr, Reduce reduce,
                   const phy::RuMask* mask) {
    if (mask == nullptr)
        return reduce == Reduce::kMinSnr ? util::min_value(snr)
                                         : util::mean(snr);
    PRESS_EXPECTS(mask->num_used() == snr.size(),
                  "mask must span the observed subcarriers");
    const std::vector<std::size_t>& idx = mask->active_indices();
    if (reduce == Reduce::kMinSnr) {
        double worst = snr[idx[0]];
        for (std::size_t i = 1; i < idx.size(); ++i)
            worst = std::min(worst, snr[idx[i]]);
        return worst;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < idx.size(); ++i) acc += snr[idx[i]];
    return acc / static_cast<double>(idx.size());
}

/// A one-term spec: `reduce` of link `link`'s SNR, weight 1, no floor.
FusedSpec one_term(std::size_t link, Reduce reduce) {
    FusedSpec spec;
    spec.terms.push_back({link, reduce});
    return spec;
}
}  // namespace

MinSnrObjective::MinSnrObjective(std::size_t link)
    : MultiLinkObjective(one_term(link, Reduce::kMinSnr),
                         "max-min-subcarrier-SNR") {}

MeanSnrObjective::MeanSnrObjective(std::size_t link)
    : MultiLinkObjective(one_term(link, Reduce::kMeanSnr), "max-mean-SNR") {}

MaskedSnrObjective::MaskedSnrObjective(phy::RuMask mask, Reduce reduce,
                                       std::size_t link)
    : MultiLinkObjective(one_term(link, reduce),
                         reduce == Reduce::kMinSnr ? "masked-min-SNR"
                                                   : "masked-mean-SNR"),
      mask_(std::move(mask)) {
    PRESS_EXPECTS(mask_.num_active() > 0,
                  "mask must leave at least one active tone");
    spec_.mask = &mask_;
}

double ThroughputObjective::score(const Observation& obs) const {
    return phy::expected_throughput_mbps(link_snr(obs, link_));
}

WeightedBandObjective::WeightedBandObjective(std::vector<Term> terms,
                                             std::string label)
    : terms_(std::move(terms)), label_(std::move(label)) {
    PRESS_EXPECTS(!terms_.empty(), "objective needs at least one term");
    for (const Term& t : terms_)
        PRESS_EXPECTS(t.first_subcarrier < t.last_subcarrier,
                      "band must be non-empty");
}

double WeightedBandObjective::score(const Observation& obs) const {
    double total = 0.0;
    for (const Term& t : terms_) {
        const std::vector<double>& snr = link_snr(obs, t.link);
        PRESS_EXPECTS(t.last_subcarrier <= snr.size(),
                      "band exceeds the SNR profile");
        double acc = 0.0;
        for (std::size_t k = t.first_subcarrier; k < t.last_subcarrier; ++k)
            acc += snr[k];
        total += t.weight * acc /
                 static_cast<double>(t.last_subcarrier - t.first_subcarrier);
    }
    return total;
}

std::unique_ptr<Objective> make_harmonization_objective(
    std::size_t num_subcarriers, bool interference_links) {
    PRESS_EXPECTS(num_subcarriers >= 2, "need at least two subcarriers");
    const std::size_t half = num_subcarriers / 2;
    std::vector<WeightedBandObjective::Term> terms;
    // Communication bands: link 0 owns the low half, link 1 the high half.
    terms.push_back({0, 0, half, 1.0});
    terms.push_back({1, half, num_subcarriers, 1.0});
    if (interference_links) {
        // Interference channels, observed as links 2 (AP1 -> client 2) and
        // 3 (AP2 -> client 1), are penalized inside the band their victim
        // uses for communication.
        terms.push_back({2, half, num_subcarriers, -1.0});
        terms.push_back({3, 0, half, -1.0});
    }
    return std::make_unique<WeightedBandObjective>(std::move(terms),
                                                   "harmonization");
}

MultiLinkObjective::MultiLinkObjective(FusedSpec spec, std::string label)
    : spec_(std::move(spec)), label_(std::move(label)) {
    PRESS_EXPECTS(!spec_.terms.empty(), "objective needs at least one term");
}

double MultiLinkObjective::term_utility(const LinkTerm& term,
                                        double value_db) {
    const double shortfall = term.qos_floor_db - value_db;
    return term.weight * value_db -
           term.qos_weight * (shortfall > 0.0 ? shortfall : 0.0);
}

double MultiLinkObjective::fold(const FusedSpec& spec, std::size_t t,
                                double acc, double utility) {
    if (t == 0) return utility;
    return spec.combine == FusedSpec::Combine::kMaxMin
               ? std::min(acc, utility)
               : acc + utility;
}

double MultiLinkObjective::score(const Observation& obs) const {
    // The general path reduces each term's span sequentially; min terms
    // match the fused scorer exactly, mean terms up to blocked-vs-
    // sequential association ulps.
    double acc = 0.0;
    for (std::size_t t = 0; t < spec_.terms.size(); ++t) {
        const LinkTerm& term = spec_.terms[t];
        const double v =
            reduce_span(link_snr(obs, term.link), term.reduce, spec_.mask);
        acc = fold(spec_, t, acc, term_utility(term, v));
    }
    return acc;
}

MultiLinkProblem& MultiLinkProblem::add(LinkTerm term) {
    spec_.terms.push_back(term);
    return *this;
}

MultiLinkProblem& MultiLinkProblem::serve(std::size_t link, double weight) {
    return add({link, reduce_, weight});
}

MultiLinkProblem& MultiLinkProblem::qos_floor(std::size_t link,
                                              double floor_db,
                                              double qos_weight) {
    return add({link, reduce_, 1.0, floor_db, qos_weight});
}

MultiLinkProblem& MultiLinkProblem::null(std::size_t link, double weight) {
    return add({link, reduce_, -weight});
}

MultiLinkProblem& MultiLinkProblem::weighted_sum() {
    spec_.combine = FusedSpec::Combine::kWeightedSum;
    return *this;
}

MultiLinkProblem& MultiLinkProblem::max_min() {
    spec_.combine = FusedSpec::Combine::kMaxMin;
    return *this;
}

MultiLinkProblem& MultiLinkProblem::reduce(Reduce kind) {
    reduce_ = kind;
    return *this;
}

std::unique_ptr<Objective> MultiLinkProblem::build(std::string label) const {
    return std::make_unique<MultiLinkObjective>(spec_, std::move(label));
}

std::unique_ptr<Objective> make_max_min_objective(std::size_t num_links,
                                                  Reduce reduce) {
    PRESS_EXPECTS(num_links >= 1, "need at least one link");
    MultiLinkProblem problem;
    problem.reduce(reduce).max_min();
    for (std::size_t i = 0; i < num_links; ++i) problem.serve(i);
    return problem.build("max-min-fairness");
}

std::unique_ptr<Objective> make_sum_mean_objective(std::size_t num_links) {
    PRESS_EXPECTS(num_links >= 1, "need at least one link");
    MultiLinkProblem problem;
    for (std::size_t i = 0; i < num_links; ++i) problem.serve(i);
    return problem.build("sum-mean-SNR");
}

std::unique_ptr<Objective> make_qos_floor_objective(std::size_t num_links,
                                                    double floor_db,
                                                    double qos_weight) {
    PRESS_EXPECTS(num_links >= 1, "need at least one link");
    MultiLinkProblem problem;
    for (std::size_t i = 0; i < num_links; ++i)
        problem.qos_floor(i, floor_db, qos_weight);
    return problem.build("qos-floor");
}

std::unique_ptr<Objective> make_nulling_objective(std::size_t num_links,
                                                  std::size_t victim,
                                                  double victim_weight) {
    PRESS_EXPECTS(num_links >= 2, "nulling needs a victim and a served link");
    PRESS_EXPECTS(victim < num_links, "victim link out of range");
    MultiLinkProblem problem;
    for (std::size_t i = 0; i < num_links; ++i) {
        if (i == victim)
            problem.null(i, victim_weight);
        else
            problem.serve(i);
    }
    return problem.build("null-victim");
}

double ConditionNumberObjective::score(const Observation& obs) const {
    PRESS_EXPECTS(!obs.mimo_condition_db.empty(),
                  "observation lacks MIMO condition numbers");
    return -util::mean(obs.mimo_condition_db);
}

}  // namespace press::control
