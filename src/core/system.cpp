#include "core/system.hpp"

#include <algorithm>
#include <chrono>
#include <complex>
#include <limits>

#include "control/batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/chanest.hpp"
#include "phy/ru.hpp"
#include "util/contracts.hpp"
#include "util/kernels.hpp"

namespace press::core {

namespace {

/// Post-search accounting of a shared-basis optimize: gauges for the
/// scene shape and one histogram of per-link winner scores — the
/// noise-free estimator-scale mean SNR of every link under the applied
/// (possibly fault-distorted) configuration, read from the shared basis,
/// the value the search's soundings converge to. One observation per link
/// per optimize call — cold path, never inside the candidate loop.
void record_multilink_telemetry(const sdr::Medium& medium,
                                const std::vector<sdr::Link>& links,
                                MultiLinkCache& cache,
                                std::size_t array_id) {
    if (!obs::enabled()) return;
    const std::size_t num_links = links.size();
    const std::size_t num_sc = cache.num_sc();
    util::kernels::SplitVec wide;
    std::vector<double> noise(num_sc);
    std::vector<double> scores_db(num_links, 0.0);
    const surface::Config& applied = medium.array(array_id).current_config();
    for (std::size_t g = 0; g < cache.num_groups(); ++g) {
        cache.group_response_into(medium, g, array_id, applied, wide);
        for (const std::size_t link_id : cache.group_links(g)) {
            const std::size_t offset = cache.view(link_id).offset;
            noise.assign(num_sc,
                         medium.estimate_noise_variance(links[link_id]));
            scores_db[link_id] = util::kernels::snr_db_mean(
                util::kernels::active(), wide.re.data() + offset,
                wide.im.data() + offset, noise.data(), num_sc,
                phy::kSnrCapDb, phy::kSnrFloorDb);
        }
    }
    cache.note_batch_hits(num_links);

    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("control.multilink.links")
        .set(static_cast<double>(num_links));
    registry.gauge("control.multilink.groups")
        .set(static_cast<double>(cache.num_groups()));
    static obs::Histogram& scores = registry.histogram(
        "control.multilink.link_score_db",
        {-20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0,
         40.0});
    double worst = std::numeric_limits<double>::infinity();
    for (double v : scores_db) {
        scores.observe(v);
        worst = std::min(worst, v);
    }
    registry.gauge("control.multilink.worst_link_db").set(worst);
}

}  // namespace

System::System(sdr::Medium medium) : medium_(std::move(medium)) {}

std::size_t System::add_link(sdr::Link link) {
    links_.push_back(std::move(link));
    return links_.size() - 1;
}

const sdr::Link& System::link(std::size_t id) const {
    PRESS_EXPECTS(id < links_.size(), "link id out of range");
    return links_[id];
}

sdr::Link& System::link(std::size_t id) {
    PRESS_EXPECTS(id < links_.size(), "link id out of range");
    return links_[id];
}

void System::set_sounding_repeats(std::size_t repeats) {
    PRESS_EXPECTS(repeats >= 2, "sounding needs at least two repetitions");
    sounding_repeats_ = repeats;
}

util::CVec System::channel_response(std::size_t link_id) const {
    return link_cache_.response(medium_, link_id, link(link_id));
}

phy::ChannelEstimate System::sound(std::size_t link_id,
                                   util::Rng& rng) const {
    return medium_.sound_with_response(link(link_id),
                                       channel_response(link_id),
                                       sounding_repeats_, rng);
}

std::vector<double> System::measured_snr_db(std::size_t link_id,
                                            util::Rng& rng) const {
    return sound(link_id, rng).snr_db();
}

std::vector<double> System::true_snr_db(std::size_t link_id) const {
    return medium_.true_snr_db(link(link_id), channel_response(link_id));
}

control::Observation System::observe(util::Rng& rng) const {
    PRESS_EXPECTS(!links_.empty(), "no links registered");
    control::Observation obs;
    obs.link_snr_db.reserve(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i)
        obs.link_snr_db.push_back(measured_snr_db(i, rng));
    return obs;
}

control::Observation System::observe_true() const {
    PRESS_EXPECTS(!links_.empty(), "no links registered");
    control::Observation obs;
    obs.link_snr_db.reserve(links_.size());
    for (std::size_t i = 0; i < links_.size(); ++i)
        obs.link_snr_db.push_back(true_snr_db(i));
    return obs;
}

void System::inject_faults(std::size_t array_id, fault::FaultModel model) {
    surface::Array& array = medium_.array(array_id);
    model.install(array);
    fault_models_.insert_or_assign(array_id, std::move(model));
}

const fault::FaultModel* System::faults(std::size_t array_id) const {
    const auto it = fault_models_.find(array_id);
    return it == fault_models_.end() ? nullptr : &it->second;
}

void System::apply(std::size_t array_id, const surface::Config& config) {
    surface::Array& array = medium_.array(array_id);
    const auto it = fault_models_.find(array_id);
    if (it != fault_models_.end())
        it->second.apply(array, config);
    else
        array.apply(config);
}

fault::HealthReport System::probe_health(
    std::size_t array_id, const control::ControlPlaneModel& plane,
    util::Rng& rng, const fault::ProbeOptions& options) {
    PRESS_EXPECTS(!links_.empty(), "register links before probing");
    const surface::Array& array = medium_.array(array_id);
    fault::HealthMonitor monitor(
        [this, array_id](const surface::Config& c) {
            apply(array_id, c);
            return true;
        },
        [this, &rng]() { return observe(rng); }, links_.size(),
        medium_.ofdm().num_used());
    return monitor.probe(array.config_space(), array.current_config(),
                         plane, options);
}

control::OptimizationOutcome System::optimize(
    std::size_t array_id, const control::Objective& objective,
    const control::Searcher& searcher,
    const control::ControlPlaneModel& plane, double time_budget_s,
    util::Rng& rng) {
    PRESS_EXPECTS(!links_.empty(), "register links before optimizing");
    const surface::ConfigSpace space =
        medium_.array(array_id).config_space();
    control::Controller controller(
        plane,
        [this, array_id](const surface::Config& c) {
            apply(array_id, c);
            return true;
        },
        [this, &rng]() { return observe(rng); }, links_.size(),
        medium_.ofdm().num_used());
    return controller.optimize(space, objective, searcher, time_budget_s,
                               rng);
}

control::OptimizationOutcome System::optimize_degraded(
    std::size_t array_id, const control::Objective& objective,
    const control::Searcher& searcher,
    const control::ControlPlaneModel& plane, double time_budget_s,
    const fault::HealthReport& report, util::Rng& rng) {
    PRESS_EXPECTS(!links_.empty(), "register links before optimizing");
    const surface::Array& array = medium_.array(array_id);
    const surface::ConfigSpace space = array.config_space();
    PRESS_EXPECTS(report.suspect.size() == space.num_elements(),
                  "health report does not match this array");

    const std::size_t flagged = report.num_suspect();
    // Nothing to freeze — or nothing left to search — degrades to the
    // plain path over the full space.
    if (flagged == 0 || flagged == space.num_elements())
        return optimize(array_id, objective, searcher, plane,
                        time_budget_s, rng);

    const surface::FrozenProjection projection =
        report.freeze(space, array.current_config());
    control::Controller controller(
        plane,
        [this, array_id, &projection](const surface::Config& reduced) {
            apply(array_id, projection.lift(reduced));
            return true;
        },
        [this, &rng]() { return observe(rng); }, links_.size(),
        medium_.ofdm().num_used());
    control::OptimizationOutcome outcome =
        controller.optimize(projection.reduced(), objective, searcher,
                            time_budget_s, rng);
    // Report the winning configuration in full arity, as callers expect.
    if (!outcome.search.best_config.empty())
        outcome.search.best_config =
            projection.lift(outcome.search.best_config);
    return outcome;
}

control::OptimizationOutcome System::optimize_fast(
    std::size_t array_id, const control::Objective& objective,
    const control::Searcher& searcher,
    const control::ControlPlaneModel& plane, double time_budget_s,
    util::Rng& rng, std::size_t threads) {
    obs::TraceSpan span("core.system.optimize_fast");
    PRESS_EXPECTS(!links_.empty(), "register links before optimizing");
    PRESS_EXPECTS(time_budget_s > 0.0, "budget must be positive");
    const surface::ConfigSpace space =
        medium_.array(array_id).config_space();

    // Price one trial exactly like the serial controller does: batch
    // evaluation speeds up the simulator, not the modeled hardware, so
    // simulated wall-clock is still charged per trial.
    control::SetConfig probe;
    probe.array_id = 0;
    probe.config.assign(space.num_elements(), 0);
    const double trial_cost = plane.config_trial_time_s(
        probe, links_.size(), medium_.ofdm().num_used());
    const std::size_t max_evals = std::max<std::size_t>(
        1, static_cast<std::size_t>(time_budget_s / trial_cost));

    // Scoring mode: a fused spec — responses -> per-term sounding draws
    // and reduction -> combinator, no Observation — or the general
    // Observation path over every link.
    const std::size_t num_links = links_.size();
    const control::FusedSpec* spec = objective.fused_spec();
    if (spec != nullptr) {
        PRESS_EXPECTS(!spec->terms.empty(),
                      "a fused spec needs at least one term");
        for (const control::LinkTerm& t : spec->terms)
            PRESS_EXPECTS(t.link < num_links,
                          "a fused term names an unregistered link");
    }
    // The basis follows from the objective: a spec with two or more terms
    // reads the stacked transmitter groups (one row selection serves all
    // of a group's members); a one-term spec or the general path reads
    // each scored link's own one-member stack.
    const bool shared = spec != nullptr && spec->terms.size() >= 2;

    // Warm the bases so the batch workers only ever read.
    if (shared) {
        obs::TraceSpan warm_span("core.system.warm_multilink");
        multi_cache_.warm(medium_, links_);
    } else {
        obs::TraceSpan warm_span("core.system.warm_cache");
        for (std::size_t i = 0; i < links_.size(); ++i)
            link_cache_.warm(medium_, i, links_[i]);
    }

    // Trials are scored against the cache instead of actuating the
    // (simulated) hardware, so flaky switches hold their pre-search state
    // for the whole run; stuck/dead/drift faults distort every candidate
    // exactly as a live apply would.
    const surface::Config baseline =
        medium_.array(array_id).current_config();
    const fault::FaultModel* fm = faults(array_id);

    // The estimator noise variance is a pure function of the link's radio
    // profile — hoist it out of the per-candidate loop.
    std::vector<double> link_noise(num_links);
    for (std::size_t i = 0; i < num_links; ++i)
        link_noise[i] = medium_.estimate_noise_variance(links_[i]);

    // Masked specs (DESIGN.md §15) score only the RU mask's active tones:
    // every basis read is bounded to the subcarrier tiles the mask
    // intersects (tile_spans), the sounding draws one noise sample per
    // ACTIVE tone per repetition (ascending active-index order —
    // identical rng consumption on the delta and recompute paths), and
    // each term reduces over the dense masked axis.
    const phy::RuMask* mask = spec != nullptr ? spec->mask : nullptr;
    std::vector<util::kernels::IndexRange> mask_spans;
    const std::size_t* mask_idx = nullptr;
    std::size_t mask_m = 0;
    if (mask != nullptr) {
        PRESS_EXPECTS(mask->num_used() == medium_.ofdm().num_used(),
                      "RU mask must span the numerology's used tones");
        PRESS_EXPECTS(mask->num_active() > 0,
                      "RU mask must leave at least one active tone");
        for (const phy::RuRange& r :
             mask->tile_spans(StackedBasis::kTileSubcarriers))
            mask_spans.push_back({r.first, r.last - r.first});
        mask_idx = mask->active_indices().data();
        mask_m = mask->active_indices().size();
    }
    const util::kernels::IndexRange* spans =
        mask != nullptr ? mask_spans.data() : nullptr;
    const std::size_t num_spans = mask_spans.size();

    // The links a candidate scores: the spec's term links, or every link.
    std::vector<std::size_t> scored;
    if (spec != nullptr) {
        for (const control::LinkTerm& t : spec->terms)
            scored.push_back(t.link);
    } else {
        for (std::size_t i = 0; i < num_links; ++i) scored.push_back(i);
    }

    // Candidate assembly — the only part the two bases do differently. A
    // candidate reads reads[j] into worker buffer s.group_h[j], after which
    // scored link i's response sits at placement[i]. Per-link: each
    // scored link's own one-member basis. Shared: the stacked group of
    // every transmitter with a scored link, ascending, so one row
    // selection serves all of a group's members.
    struct Placement {
        std::size_t read = 0;
        std::size_t offset = 0;
    };
    std::vector<const StackedBasis*> reads;
    std::vector<Placement> placement(num_links);
    std::size_t responses_per_eval = 0;
    if (shared) {
        std::vector<std::size_t> groups;
        for (std::size_t i : scored)
            groups.push_back(multi_cache_.view(i).group);
        std::sort(groups.begin(), groups.end());
        groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
        for (std::size_t g : groups) {
            reads.push_back(&multi_cache_.group_basis(g));
            responses_per_eval += multi_cache_.group_links(g).size();
        }
        for (std::size_t i : scored) {
            const MultiLinkCache::LinkView view = multi_cache_.view(i);
            placement[i] = {static_cast<std::size_t>(
                                std::lower_bound(groups.begin(), groups.end(),
                                                 view.group) -
                                groups.begin()),
                            view.offset};
        }
    } else {
        for (std::size_t i : scored) {
            placement[i] = {reads.size(), 0};
            reads.push_back(&link_cache_.basis(i));
        }
        responses_per_eval = reads.size();
    }
    const std::size_t num_sc = medium_.ofdm().num_used();
    const std::size_t repeats = sounding_repeats_;

    // Sounds scored link `link` from its assembled response: raw LTF draws
    // (same r-outer / k-inner rng order as Medium::sound_with_response,
    // over the active tones only when masked) then the combining kernel,
    // leaving m combined tones in s.mean_re/_im and s.noise_var.
    const auto sound = [&](std::size_t link, util::Rng& crng,
                           control::EvalScratch& s) {
        const util::kernels::SplitVec& h = s.group_h[placement[link].read];
        const double* hre = h.re.data() + placement[link].offset;
        const double* him = h.im.data() + placement[link].offset;
        const double var = link_noise[link];
        const std::size_t m = mask != nullptr ? mask_m : num_sc;
        s.resize_tracked(s.raw_re, repeats * num_sc);
        s.resize_tracked(s.raw_im, repeats * num_sc);
        s.resize_tracked(s.mean_re, m);
        s.resize_tracked(s.mean_im, m);
        s.resize_tracked(s.noise_var, m);
        for (std::size_t r = 0; r < repeats; ++r) {
            double* rr = s.raw_re.data() + r * num_sc;
            double* ri = s.raw_im.data() + r * num_sc;
            const auto draw = [&](std::size_t k) {
                const std::complex<double> w = crng.complex_gaussian(var);
                rr[k] = hre[k] + w.real();
                ri[k] = him[k] + w.imag();
            };
            if (mask != nullptr)
                for (std::size_t i = 0; i < m; ++i) draw(mask_idx[i]);
            else
                for (std::size_t k = 0; k < m; ++k) draw(k);
        }
        const util::kernels::Dispatch d = util::kernels::active();
        if (mask != nullptr)
            util::kernels::masked_ltf_mean_var(
                d, s.raw_re.data(), s.raw_im.data(), repeats, num_sc,
                mask_idx, m, s.mean_re.data(), s.mean_im.data(),
                s.noise_var.data());
        else
            util::kernels::ltf_mean_var(
                d, s.raw_re.data(), s.raw_im.data(), repeats, num_sc,
                s.mean_re.data(), s.mean_im.data(), s.noise_var.data());
        return m;
    };

    // Fused reduction of the sounding in s to one SNR (dB): min exactly
    // matches the Observation path, mean differs by blocked-vs-sequential
    // association ulps (see Objective::fused_spec).
    const auto reduce = [](control::Reduce kind,
                           const control::EvalScratch& s, std::size_t m) {
        const util::kernels::Dispatch d = util::kernels::active();
        return kind == control::Reduce::kMinSnr
                   ? util::kernels::snr_db_min(
                         d, s.mean_re.data(), s.mean_im.data(),
                         s.noise_var.data(), m, phy::kSnrCapDb,
                         phy::kSnrFloorDb)
                   : util::kernels::snr_db_mean(
                         d, s.mean_re.data(), s.mean_im.data(),
                         s.noise_var.data(), m, phy::kSnrCapDb,
                         phy::kSnrFloorDb);
    };

    // Scores a candidate whose responses are assembled. Links are sounded
    // in a fixed order — term order, or ascending link id — so the rng
    // draw sequence never depends on the basis, grouping, scheduling or
    // kernel flavor.
    const auto score = [&](util::Rng& crng,
                           control::EvalScratch& s) -> double {
        if (spec != nullptr) {
            double acc = 0.0;
            for (std::size_t t = 0; t < spec->terms.size(); ++t) {
                const control::LinkTerm& term = spec->terms[t];
                const double v = reduce(term.reduce, s,
                                        sound(term.link, crng, s));
                acc = control::MultiLinkObjective::fold(
                    *spec, t, acc,
                    control::MultiLinkObjective::term_utility(term, v));
            }
            return acc;
        }
        if (s.observation.link_snr_db.size() != num_links)
            s.observation.link_snr_db.resize(num_links);
        for (std::size_t i = 0; i < num_links; ++i) {
            sound(i, crng, s);
            std::vector<double>& snr = s.observation.link_snr_db[i];
            s.resize_tracked(snr, num_sc);
            util::kernels::snr_db_into(
                util::kernels::active(), s.mean_re.data(), s.mean_im.data(),
                s.noise_var.data(), num_sc, phy::kSnrCapDb, phy::kSnrFloorDb,
                snr.data());
        }
        return objective.score(s.observation);
    };

    control::BatchEvaluator pool(
        [&](const surface::Config& c, util::Rng& crng,
            control::EvalScratch& s) {
            const surface::Config* actual = &c;
            if (fm) {
                fm->distorted_into(c, baseline, crng, s.config);
                actual = &s.config;
            }
            // Sized once per worker; the buffers inside grow to the read
            // width on first use and are reused afterwards.
            if (s.group_h.size() != reads.size())
                s.group_h.resize(reads.size());
            for (std::size_t j = 0; j < reads.size(); ++j)
                reads[j]->read(medium_, array_id, *actual,
                               StackedBasis::kNoSkip, spans, num_spans,
                               s.group_h[j]);
            return score(crng, s);
        },
        rng.engine()(), threads);
    // Shard the shared path in (candidate x link) tiles: a 32-link
    // candidate carries 32 tiles of work, so claims stay small enough to
    // balance the tail.
    if (shared) pool.set_task_weight(responses_per_eval);

    // Coordinate sweeps share per-read base responses (the swept element's
    // row excluded) built once per sweep outside the workers; each
    // candidate then costs one fused base-plus-row pass. With the delta
    // path disabled (PRESS_DELTA=0) workers recompute the base per
    // candidate — the swept row is added last either way, so the bits
    // are the same.
    const bool delta = control::coordinate_delta_enabled();
    std::vector<util::kernels::SplitVec> coord_base(reads.size());
    pool.set_coordinate_score([&](const control::CoordinateBatch& cb,
                                  std::size_t idx, util::Rng& crng,
                                  control::EvalScratch& s) {
        const int state = (*cb.states)[idx];
        if (s.group_h.size() != reads.size()) s.group_h.resize(reads.size());
        for (std::size_t j = 0; j < reads.size(); ++j) {
            util::kernels::SplitVec& h = s.group_h[j];
            if (delta) {
                s.resize_tracked(h, coord_base[j].size());
                reads[j]->row_delta(array_id, cb.element, state, spans,
                                    num_spans, coord_base[j], h);
            } else {
                reads[j]->read(medium_, array_id, *cb.base, cb.element,
                               spans, num_spans, h);
                reads[j]->add_row(array_id, cb.element, state, spans,
                                  num_spans, h);
            }
        }
        return score(crng, s);
    });

    control::OptimizationOutcome outcome;
    outcome.trial_cost_s = trial_cost;

    // Every cached read inside a batch is a hit by the warm()
    // precondition; fold them at batch granularity so the per-call path
    // stays instrumentation-free, then price the batch on the sim clock.
    control::SimClock clock;
    const auto charge = [&](std::size_t candidates) {
        const std::uint64_t hits =
            static_cast<std::uint64_t>(candidates) * responses_per_eval;
        if (shared)
            multi_cache_.note_batch_hits(hits);
        else
            link_cache_.note_batch_hits(hits);
        clock.advance(trial_cost * static_cast<double>(candidates));
    };
    const control::BatchEvalFn eval =
        [&](const std::vector<surface::Config>& batch) {
            std::vector<double> scores = pool.evaluate(batch);
            charge(batch.size());
            return scores;
        };
    // Coordinate sweeps bypass full-configuration assembly, but only when
    // no fault model distorts candidates: faults rewrite arbitrary
    // elements (and flaky ones consume candidate rng), which the
    // base-plus-one-row arithmetic cannot represent.
    const control::CoordinateEvalFn coord_eval =
        fm ? control::CoordinateEvalFn{}
           : control::CoordinateEvalFn([&](const surface::Config& base,
                                           std::size_t element,
                                           const std::vector<int>& states) {
                 if (delta)
                     for (std::size_t j = 0; j < reads.size(); ++j)
                         reads[j]->read(medium_, array_id, base, element,
                                        spans, num_spans, coord_base[j]);
                 control::CoordinateBatch cb{&base, element, &states};
                 std::vector<double> scores = pool.evaluate_coordinate(cb);
                 charge(states.size());
                 return scores;
             });
    const control::StopFn stop = [&clock, time_budget_s]() {
        return clock.now_s() >= time_budget_s;
    };

    {
        obs::TraceSpan search_span("core.system.search_batched", &clock);
        const auto compute_t0 = std::chrono::steady_clock::now();
        outcome.search =
            searcher.search_batched(space, eval, coord_eval, max_evals,
                                    rng, stop, pool.num_threads() * 2);
        outcome.search.compute_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - compute_t0)
                .count();
    }
    outcome.elapsed_s = clock.now_s();
    outcome.budget_limited = outcome.search.evaluations >= max_evals ||
                             clock.now_s() >= time_budget_s;

    // best_score is the max over noisy samples, biased high (see
    // SearchResult). Re-score the winner over fresh candidate rng
    // streams — routed through `eval` so the confirmation trials are
    // priced on the sim clock and counted as cache hits like any other.
    outcome.search.best_score_remeasured = outcome.search.best_score;
    if (!outcome.search.best_config.empty()) {
        obs::TraceSpan remeasure_span("core.system.remeasure", &clock);
        constexpr std::size_t kRemeasureEvals = 3;
        const std::vector<double> confirm = eval(std::vector<surface::Config>(
            kRemeasureEvals, outcome.search.best_config));
        double sum = 0.0;
        for (double v : confirm) sum += v;
        outcome.search.remeasure_evals = confirm.size();
        outcome.search.best_score_remeasured =
            sum / static_cast<double>(confirm.size());
    }
    control::record_search_telemetry(searcher.name(), outcome.search);
    pool.publish_worker_stats();

    // Actuate the winner through the normal (fault-distorting) path.
    if (!outcome.search.best_config.empty())
        apply(array_id, outcome.search.best_config);
    if (shared)
        record_multilink_telemetry(medium_, links_, multi_cache_, array_id);
    return outcome;
}

}  // namespace press::core
