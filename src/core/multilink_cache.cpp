#include "core/multilink_cache.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace press::core {

namespace {

// Mirrors of the cache's atomic counters in the global registry, so an
// export sees the shared-basis traffic without holding a cache pointer.
// Cold paths only (rebuilds, invalidations) plus amortized batch folds.
void mirror_rebuild() {
    if (!obs::enabled()) return;
    static obs::Counter& rebuilds = obs::MetricsRegistry::global().counter(
        "control.multilink.basis_rebuilds");
    rebuilds.add();
}

void mirror_hits(std::uint64_t n) {
    if (!obs::enabled()) return;
    static obs::Counter& hits = obs::MetricsRegistry::global().counter(
        "control.multilink.shared_basis_hits");
    hits.add(n);
}

// Transmitter identity: the fingerprint's leading nine facets (tx position
// + antenna). Links agreeing on all nine share a group (exact comparison —
// endpoints come from the same scenario-builder doubles, not re-derived
// values).
using TxKey = std::array<double, 9>;

TxKey tx_key(const StackedBasis::Fingerprint& fp) {
    TxKey key{};
    std::copy_n(fp.begin(), key.size(), key.begin());
    return key;
}

}  // namespace

bool MultiLinkCache::current(const sdr::Medium& medium,
                             const std::vector<sdr::Link>& links) const {
    if (!valid_) return false;
    if (views_.size() != links.size()) return false;
    // Every group is built in one pass, so one stamp speaks for all.
    if (!groups_.front().basis.current(medium)) return false;
    for (std::size_t i = 0; i < links.size(); ++i) {
        if (fingerprints_[i] != StackedBasis::fingerprint(links[i]))
            return false;
    }
    return true;
}

void MultiLinkCache::rebuild(const sdr::Medium& medium,
                             const std::vector<sdr::Link>& links) {
    obs::TraceSpan span("control.multilink.rebuild");
    // Group links by transmitter, groups ordered by first appearance and
    // members ascending (link ids ascend as we scan).
    groups_.clear();
    views_.assign(links.size(), LinkView{});
    fingerprints_.resize(links.size());
    std::map<TxKey, std::size_t> by_tx;
    for (std::size_t i = 0; i < links.size(); ++i) {
        fingerprints_[i] = StackedBasis::fingerprint(links[i]);
        auto [it, inserted] =
            by_tx.try_emplace(tx_key(fingerprints_[i]), groups_.size());
        if (inserted) groups_.emplace_back();
        Group& g = groups_[it->second];
        views_[i] = LinkView{it->second, g.links.size(), 0};
        g.links.push_back(i);
    }
    std::vector<const sdr::Link*> members;
    for (Group& g : groups_) {
        members.clear();
        for (std::size_t id : g.links) members.push_back(&links[id]);
        g.basis.build(medium, members.data(), members.size(),
                      /*pad_reads=*/true);
    }
    for (LinkView& v : views_) v.offset = v.slot * link_stride();
    valid_ = true;
}

void MultiLinkCache::warm(const sdr::Medium& medium,
                          const std::vector<sdr::Link>& links) {
    PRESS_EXPECTS(!links.empty(), "warm() needs at least one link");
    if (current(medium, links)) return;
    rebuild(medium, links);
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    mirror_rebuild();
}

const StackedBasis& MultiLinkCache::group_basis(std::size_t group) const {
    PRESS_EXPECTS(valid_, "cache is cold; call warm() before group reads");
    PRESS_EXPECTS(group < groups_.size(), "group id out of range");
    return groups_[group].basis;
}

void MultiLinkCache::group_response_into(const sdr::Medium& medium,
                                         std::size_t group,
                                         std::size_t array_id,
                                         const surface::Config& config,
                                         util::kernels::SplitVec& out) const {
    const StackedBasis& b = group_basis(group);
    PRESS_EXPECTS(array_id < b.num_arrays(),
                  "array id out of the cached range");
    b.read(medium, array_id, config, StackedBasis::kNoSkip, nullptr, 0, out);
}

MultiLinkCache::LinkView MultiLinkCache::view(std::size_t link_id) const {
    PRESS_EXPECTS(valid_, "cache is cold; call warm() first");
    PRESS_EXPECTS(link_id < views_.size(), "link id out of range");
    return views_[link_id];
}

const std::vector<std::size_t>& MultiLinkCache::group_links(
    std::size_t group) const {
    PRESS_EXPECTS(valid_, "cache is cold; call warm() first");
    PRESS_EXPECTS(group < groups_.size(), "group id out of range");
    return groups_[group].links;
}

MultiLinkCache::MemoryStats MultiLinkCache::memory_stats() const {
    PRESS_EXPECTS(valid_, "cache is cold; call warm() first");
    MemoryStats m;
    for (const Group& g : groups_) {
        const StackedBasis& b = g.basis;
        const std::size_t members = g.links.size();
        std::size_t table = 0;
        for (std::size_t a = 0; a < b.num_arrays(); ++a)
            table += b.table_bytes(a);
        m.shared_table_bytes += table;
        m.shared_static_bytes += b.static_bytes();
        m.shared_metadata_bytes +=
            members * sizeof(std::size_t) + b.metadata_bytes();
        // N per-link caches hold the same rows split across N tables
        // (identical doubles) but duplicate the selection metadata and
        // fingerprint per member; their static CFRs are unpadded.
        m.naive_table_bytes += table;
        m.naive_static_bytes += members * 2 * b.num_sc() * sizeof(double);
        m.naive_metadata_bytes +=
            members * (b.metadata_bytes() +
                       StackedBasis::kFingerprintSize * sizeof(double));
    }
    m.shared_metadata_bytes +=
        views_.size() * sizeof(LinkView) +
        fingerprints_.size() * StackedBasis::kFingerprintSize *
            sizeof(double);
    return m;
}

void MultiLinkCache::invalidate() {
    valid_ = false;
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
        static obs::Counter& invalidations =
            obs::MetricsRegistry::global().counter(
                "control.multilink.invalidations");
        invalidations.add();
    }
}

void MultiLinkCache::note_batch_hits(std::uint64_t n) {
    hits_.fetch_add(n, std::memory_order_relaxed);
    mirror_hits(n);
}

}  // namespace press::core
