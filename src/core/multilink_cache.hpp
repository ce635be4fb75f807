// Shared multi-link channel cache: the transmitter-group indexer over the
// factored basis (core/stacked_basis.hpp).
//
// A multi-user scene registers tens to hundreds of TX/RX pairs over the
// same element field. Every link sharing a transmitter selects the SAME
// row indices for a candidate (row selection depends only on the
// configuration and the array's element arity, never on the receiver),
// so MultiLinkCache groups links by transmitter (position + antenna
// facets) and keeps ONE StackedBasis per group, members in ascending
// link-id order. One row selection then serves every member: the
// candidate accumulation walks the metadata once per group and streams
// one contiguous table, so per-candidate selection cost grows with
// distinct transmitters, not links. Group reads are sized to the padded
// stack width (member slot s owns doubles [s * link_stride, + num_sc));
// LinkCache is the one-member case of the same basis, so a member's
// segment is bit-identical to that link's LinkCache::response_into
// output (tests/test_multilink.cpp asserts this).
//
// Memory: the table bytes are essentially the SAME as N per-link caches
// (every (link, element, state) row exists exactly once either way); the
// sharing deduplicates the per-array metadata (radices, row offsets,
// fingerprint validation) and — the real win — the per-candidate
// row-selection work and memory-stream count. memory_stats() reports both
// sides so benchmarks can print the honest comparison.
//
// Invalidation is the basis's: environment revision, per-array structure
// revisions, and per-link endpoint fingerprints are checked on warm();
// config sweeps hit, geometry/fault edits rebuild.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/stacked_basis.hpp"
#include "press/config.hpp"
#include "sdr/medium.hpp"
#include "util/kernels.hpp"

namespace press::core {

class MultiLinkCache {
public:
    MultiLinkCache() = default;

    // Same move story as LinkCache: the atomic counters delete the
    // implicit moves, but a System is only moved before workers exist.
    MultiLinkCache(MultiLinkCache&& other) noexcept
        : groups_(std::move(other.groups_)),
          views_(std::move(other.views_)),
          fingerprints_(std::move(other.fingerprints_)),
          valid_(other.valid_),
          hits_(other.hits_.exchange(0, std::memory_order_relaxed)),
          rebuilds_(other.rebuilds_.exchange(0, std::memory_order_relaxed)),
          invalidations_(other.invalidations_.exchange(
              0, std::memory_order_relaxed)) {
        other.valid_ = false;
    }
    MultiLinkCache& operator=(MultiLinkCache&& other) noexcept {
        groups_ = std::move(other.groups_);
        views_ = std::move(other.views_);
        fingerprints_ = std::move(other.fingerprints_);
        valid_ = other.valid_;
        other.valid_ = false;
        hits_.store(other.hits_.exchange(0, std::memory_order_relaxed),
                    std::memory_order_relaxed);
        rebuilds_.store(
            other.rebuilds_.exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
        invalidations_.store(
            other.invalidations_.exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
        return *this;
    }

    /// Where one link lives inside its group's wide rows: segment `slot`
    /// (ascending link-id order within the group), starting `offset`
    /// doubles into each component span.
    struct LinkView {
        std::size_t group = 0;
        std::size_t slot = 0;
        std::size_t offset = 0;  ///< slot * link_stride()
    };

    /// Counter snapshot (relaxed atomics internally, plain values out).
    struct Stats {
        std::uint64_t hits = 0;      ///< group responses served warm
        std::uint64_t rebuilds = 0;  ///< full basis (re)builds
        std::uint64_t invalidations = 0;
    };

    /// Shared-vs-naive footprint, for the bench's honest comparison. The
    /// `naive_*` side is what N independent LinkCaches would hold for the
    /// same scene (computed from the same layout, not measured).
    struct MemoryStats {
        std::size_t shared_table_bytes = 0;   ///< wide basis tables
        std::size_t shared_static_bytes = 0;  ///< wide static CFRs
        std::size_t shared_metadata_bytes = 0;
        std::size_t naive_table_bytes = 0;
        std::size_t naive_static_bytes = 0;
        std::size_t naive_metadata_bytes = 0;
    };

    /// Builds (or refreshes) the grouped basis for `links` so every
    /// group read is a pure read. Link ids are positions in
    /// `links`; call again after geometry / fault / endpoint changes
    /// (stale state is detected and rebuilt, warm state is a no-op).
    void warm(const sdr::Medium& medium, const std::vector<sdr::Link>& links);

    /// True when warm() has run and nothing invalidated it since.
    bool warmed() const { return valid_; }

    /// Wide CFR of group `group` — every member link's response, stacked —
    /// with array `array_id`'s states overridden by `config`. Resizes
    /// `out` to the group's stack width; requires a warm cache. Reads only
    /// immutable state: safe from concurrent batch workers.
    void group_response_into(const sdr::Medium& medium, std::size_t group,
                             std::size_t array_id,
                             const surface::Config& config,
                             util::kernels::SplitVec& out) const;

    /// The wide-row placement of link `link_id`. Requires a warm cache.
    LinkView view(std::size_t link_id) const;

    /// Member link ids of `group`, ascending. Requires a warm cache.
    const std::vector<std::size_t>& group_links(std::size_t group) const;

    std::size_t num_groups() const { return groups_.size(); }
    std::size_t num_links() const { return views_.size(); }
    std::size_t num_sc() const {
        return groups_.empty() ? 0 : groups_.front().basis.num_sc();
    }
    /// Doubles per member segment (num_sc padded to kernels::kLanes).
    std::size_t link_stride() const {
        return groups_.empty() ? 0 : groups_.front().basis.stride();
    }
    MemoryStats memory_stats() const;

    /// Drops the grouped basis (the next warm() rebuilds).
    void invalidate();

    /// Folds `n` warm group reads performed by a batch (same amortized
    /// accounting contract as LinkCache::note_batch_hits; mirrored into
    /// the control.multilink.shared_basis_hits counter).
    void note_batch_hits(std::uint64_t n);

    Stats stats() const {
        Stats s;
        s.hits = hits_.load(std::memory_order_relaxed);
        s.rebuilds = rebuilds_.load(std::memory_order_relaxed);
        s.invalidations = invalidations_.load(std::memory_order_relaxed);
        return s;
    }

    /// The warm stacked basis of `group` — every read form (tile-bounded
    /// spans, base, row add, fused row delta) and the stack width.
    const StackedBasis& group_basis(std::size_t group) const;

private:
    struct Group {
        std::vector<std::size_t> links;  ///< member link ids, ascending
        StackedBasis basis;
    };

    bool current(const sdr::Medium& medium,
                 const std::vector<sdr::Link>& links) const;
    void rebuild(const sdr::Medium& medium,
                 const std::vector<sdr::Link>& links);

    std::vector<Group> groups_;
    std::vector<LinkView> views_;  ///< link id -> placement
    std::vector<StackedBasis::Fingerprint> fingerprints_;  ///< per link id
    bool valid_ = false;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> rebuilds_{0};
    std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace press::core
