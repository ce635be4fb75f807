#include "core/link_cache.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace press::core {

namespace {

// Mirrors the cache's own atomic counters into the global registry so an
// export sees them without holding a LinkCache pointer. Called on the cold
// paths only (rebuilds, invalidations) plus note-batch folds via System.
void mirror_miss() {
    if (!obs::enabled()) return;
    static obs::Counter& misses =
        obs::MetricsRegistry::global().counter("core.link_cache.misses");
    misses.add();
}

void mirror_hits(std::uint64_t n) {
    if (!obs::enabled()) return;
    static obs::Counter& hits =
        obs::MetricsRegistry::global().counter("core.link_cache.hits");
    hits.add(n);
}

using util::kernels::SplitVec;
constexpr std::size_t kNoSkip = StackedBasis::kNoSkip;

}  // namespace

bool LinkCache::current(const sdr::Medium& medium, const Entry& entry,
                        const sdr::Link& link) const {
    return entry.valid && entry.basis.current(medium) &&
           entry.fingerprint == StackedBasis::fingerprint(link);
}

bool LinkCache::refresh(const sdr::Medium& medium, std::size_t link_id,
                        const sdr::Link& link) {
    if (entries_.size() <= link_id) entries_.resize(link_id + 1);
    Entry& entry = entries_[link_id];
    if (current(medium, entry, link)) return false;
    {
        obs::TraceSpan span("core.link_cache.rebuild");
        const sdr::Link* member = &link;
        entry.basis.build(medium, &member, 1, /*pad_reads=*/false);
        entry.fingerprint = StackedBasis::fingerprint(link);
        entry.valid = true;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    mirror_miss();
    return true;
}

const StackedBasis& LinkCache::checked(const sdr::Medium& medium,
                                       std::size_t link_id,
                                       const sdr::Link& link) const {
    PRESS_EXPECTS(link_id < entries_.size(), "link has no cache entry");
    const Entry& entry = entries_[link_id];
    PRESS_EXPECTS(current(medium, entry, link),
                  "cache entry is stale; call warm() before batch reads");
    return entry.basis;
}

const StackedBasis& LinkCache::basis(std::size_t link_id) const {
    PRESS_EXPECTS(link_id < entries_.size(), "link has no cache entry");
    PRESS_EXPECTS(entries_[link_id].valid,
                  "cache entry is cold; call warm() first");
    return entries_[link_id].basis;
}

void LinkCache::note_batch_hits(std::uint64_t n) {
    hits_.fetch_add(n, std::memory_order_relaxed);
    mirror_hits(n);
}

void LinkCache::warm(const sdr::Medium& medium, std::size_t link_id,
                     const sdr::Link& link) {
    refresh(medium, link_id, link);
}

util::CVec LinkCache::response(const sdr::Medium& medium,
                               std::size_t link_id, const sdr::Link& link) {
    if (!refresh(medium, link_id, link)) note_batch_hits(1);
    const StackedBasis& b = entries_[link_id].basis;
    SplitVec h;
    b.read(medium, /*array_id=*/b.num_arrays(), surface::Config{}, kNoSkip,
           nullptr, 0, h);
    util::CVec out(h.size());
    util::kernels::interleave(h.re.data(), h.im.data(), out.data(),
                              h.size());
    return out;
}

void LinkCache::response_into(const sdr::Medium& medium,
                              std::size_t link_id, const sdr::Link& link,
                              std::size_t array_id,
                              const surface::Config& config,
                              SplitVec& out) const {
    const StackedBasis& b = checked(medium, link_id, link);
    PRESS_EXPECTS(array_id < b.num_arrays(),
                  "array id out of the cached range");
    b.read(medium, array_id, config, kNoSkip, nullptr, 0, out);
}

void LinkCache::response_base_into(const sdr::Medium& medium,
                                   std::size_t link_id,
                                   const sdr::Link& link,
                                   std::size_t array_id,
                                   const surface::Config& config,
                                   std::size_t element,
                                   SplitVec& out) const {
    const StackedBasis& b = checked(medium, link_id, link);
    PRESS_EXPECTS(element < b.num_elements(array_id),
                  "element id out of the cached range");
    b.read(medium, array_id, config, element, nullptr, 0, out);
}

void LinkCache::element_row_delta(std::size_t link_id, std::size_t array_id,
                                  std::size_t element, int state,
                                  const SplitVec& base, SplitVec& out) const {
    basis(link_id).row_delta(array_id, element, state, nullptr, 0, base,
                             out);
}

void LinkCache::invalidate() {
    for (Entry& entry : entries_) entry.valid = false;
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
        static obs::Counter& invalidations =
            obs::MetricsRegistry::global().counter(
                "core.link_cache.invalidations");
        invalidations.add();
    }
}

}  // namespace press::core
