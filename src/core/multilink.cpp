// System::optimize_multilink — joint N-link optimization over the shared
// per-transmitter basis (core::MultiLinkCache). It is the shared-basis
// front end of System's one batched driver (optimize_batched, in
// system.cpp): candidates are assembled from stacked group reads — one
// row selection per transmitter group serves all of that group's links,
// so per-candidate cost grows with distinct transmitters — and scored by
// the same sounding, fused / masked / general finishes, coordinate delta
// sweeps and winner remeasure as optimize_fast. Only this entry point
// scores composite MultiLinkSpec objectives fused; for any single-link
// objective it returns optimize_fast's result bit for bit.
//
// Determinism: for one candidate, group responses are assembled first
// (ascending group id), then links are sounded in a FIXED order — term
// order for composite objectives, the one fused link for single-link
// fused objectives, ascending link id for the general path — so the rng
// draw sequence never depends on grouping, scheduling or kernel flavor.
// Within a mode the results are bit-identical across thread counts and
// dispatch flavors; across modes (composite vs general) the draw order
// differs by construction, so scores are mode-consistent, not
// cross-mode comparable.
#include <algorithm>
#include <limits>

#include "core/system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/chanest.hpp"
#include "util/kernels.hpp"

namespace press::core {

namespace {

/// Post-search accounting: gauges for the scene shape and one histogram
/// of per-link winner scores (noise-free estimator-scale mean SNR, the
/// value the search's soundings converge to). One observation per link
/// per optimize call — cold path, never inside the candidate loop.
void record_multilink_telemetry(std::size_t num_links,
                                std::size_t num_groups,
                                const std::vector<double>& link_scores_db) {
    if (!obs::enabled()) return;
    auto& registry = obs::MetricsRegistry::global();
    registry.gauge("control.multilink.links")
        .set(static_cast<double>(num_links));
    registry.gauge("control.multilink.groups")
        .set(static_cast<double>(num_groups));
    static obs::Histogram& scores = registry.histogram(
        "control.multilink.link_score_db",
        {-20.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0,
         40.0});
    double worst = std::numeric_limits<double>::infinity();
    for (double v : link_scores_db) {
        scores.observe(v);
        worst = std::min(worst, v);
    }
    if (!link_scores_db.empty())
        registry.gauge("control.multilink.worst_link_db").set(worst);
}

}  // namespace

control::OptimizationOutcome System::optimize_multilink(
    std::size_t array_id, const control::Objective& objective,
    const control::Searcher& searcher,
    const control::ControlPlaneModel& plane, double time_budget_s,
    util::Rng& rng, std::size_t threads) {
    obs::TraceSpan span("core.system.optimize_multilink");
    control::OptimizationOutcome outcome =
        optimize_batched(/*shared=*/true, array_id, objective, searcher,
                         plane, time_budget_s, rng, threads);
    if (!obs::enabled()) return outcome;

    // Per-link winner scores for telemetry: noise-free estimator-scale
    // mean SNR of every link under the applied (possibly fault-distorted)
    // configuration, read from the shared basis. Cold path, one pass.
    const std::size_t num_links = links_.size();
    const std::size_t num_sc = multi_cache_.num_sc();
    util::kernels::SplitVec wide;
    std::vector<double> noise(num_sc);
    std::vector<double> scores_db(num_links, 0.0);
    const surface::Config& applied = medium_.array(array_id).current_config();
    for (std::size_t g = 0; g < multi_cache_.num_groups(); ++g) {
        multi_cache_.group_response_into(medium_, g, array_id, applied, wide);
        for (const std::size_t link_id : multi_cache_.group_links(g)) {
            const std::size_t offset = multi_cache_.view(link_id).offset;
            noise.assign(num_sc,
                         medium_.estimate_noise_variance(links_[link_id]));
            scores_db[link_id] = util::kernels::snr_db_mean(
                util::kernels::active(), wide.re.data() + offset,
                wide.im.data() + offset, noise.data(), num_sc,
                phy::kSnrCapDb, phy::kSnrFloorDb);
        }
    }
    multi_cache_.note_batch_hits(num_links);
    record_multilink_telemetry(num_links, multi_cache_.num_groups(),
                               scores_db);
    return outcome;
}

}  // namespace press::core
