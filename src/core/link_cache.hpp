// Per-link channel cache: the single-link indexer over the factored
// basis (core/stacked_basis.hpp has the decomposition, layout and
// bit-identity story). Each registered link owns a one-member
// StackedBasis whose reads are sized num_sc, so a cached response is
// bit-identical to em::frequency_response(medium.resolve_paths(link)).
// The hot read path writes into caller-owned scratch (response_into) —
// zero heap allocations per candidate once the scratch reaches
// steady-state size.
//
// Invalidation: entries are validated on every access against
//   - the environment's revision stamp (walls, obstacles, scatterers,
//     reflection order, static paths),
//   - each array's structure revision (elements added, loads swapped by
//     fault injection or trim, element antennas re-pointed),
//   - a fingerprint of the link endpoints (positions and antennas).
// Applying configurations changes none of these, so config sweeps hit the
// cache; fault installation and geometry edits rebuild it.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/stacked_basis.hpp"
#include "press/config.hpp"
#include "sdr/medium.hpp"
#include "util/cvec.hpp"
#include "util/kernels.hpp"

namespace press::core {

class LinkCache {
public:
    LinkCache() = default;

    // The atomic counters delete the implicit moves, but System (and the
    // scenarios that return one by value) moves caches around before any
    // worker thread exists — plain relaxed exchanges suffice. The source's
    // counters are zeroed so a moved-from cache that is reused starts a
    // fresh count instead of double-reporting the transferred hits/misses
    // in telemetry.
    LinkCache(LinkCache&& other) noexcept
        : entries_(std::move(other.entries_)),
          hits_(other.hits_.exchange(0, std::memory_order_relaxed)),
          misses_(other.misses_.exchange(0, std::memory_order_relaxed)),
          invalidations_(other.invalidations_.exchange(
              0, std::memory_order_relaxed)) {}
    LinkCache& operator=(LinkCache&& other) noexcept {
        entries_ = std::move(other.entries_);
        hits_.store(other.hits_.exchange(0, std::memory_order_relaxed),
                    std::memory_order_relaxed);
        misses_.store(other.misses_.exchange(0, std::memory_order_relaxed),
                      std::memory_order_relaxed);
        invalidations_.store(
            other.invalidations_.exchange(0, std::memory_order_relaxed),
            std::memory_order_relaxed);
        return *this;
    }

    /// Point-in-time snapshot of the cache counters. Counters are kept in
    /// relaxed atomics internally so a telemetry export can read them while
    /// batch workers are folding hits — stats() hands back plain values.
    struct Stats {
        std::uint64_t hits = 0;           ///< responses served from a warm basis
        std::uint64_t misses = 0;         ///< basis (re)builds
        std::uint64_t invalidations = 0;  ///< explicit invalidate() calls
    };

    /// Subcarrier-tile width (doubles) of the blocked accumulation.
    static constexpr std::size_t kTileSubcarriers =
        StackedBasis::kTileSubcarriers;

    /// CFR of `link` on the used subcarriers under every array's currently
    /// selected states, rebuilding the factored basis if stale.
    util::CVec response(const sdr::Medium& medium, std::size_t link_id,
                        const sdr::Link& link);

    /// CFR with array `array_id`'s states overridden by `config` (other
    /// arrays stay at their current states), written into caller-owned
    /// scratch resized to the subcarrier count (capacity is retained
    /// across calls, so a reused scratch never allocates in steady
    /// state). Requires a warm, current entry (see warm()); never
    /// rebuilds, and reads only immutable entry state — safe to call
    /// concurrently from a batch evaluator.
    void response_into(const sdr::Medium& medium, std::size_t link_id,
                       const sdr::Link& link, std::size_t array_id,
                       const surface::Config& config,
                       util::kernels::SplitVec& out) const;

    /// Coordinate-sweep base: like response_into(), but element `element`
    /// of array `array_id` contributes NO row at all (its state in
    /// `config` is ignored). Adding exactly one of that element's rows
    /// afterwards (element_row_delta) yields the sweep's candidate
    /// response with the swept row added last — the canonical arithmetic
    /// both the delta-caching and the per-candidate-recompute paths
    /// reproduce bit-for-bit.
    void response_base_into(const sdr::Medium& medium, std::size_t link_id,
                            const sdr::Link& link, std::size_t array_id,
                            const surface::Config& config,
                            std::size_t element,
                            util::kernels::SplitVec& out) const;

    /// Fused coordinate delta: out = base + element `element`'s basis row
    /// for load state `state`, in ONE pass over out (base untouched) —
    /// bit-identical to copying `base` into `out` and adding the row
    /// (StackedBasis::add_row), at 60% of the memory traffic. `out` must
    /// already be sized to `base` (resize it once outside the sweep; the
    /// call itself never allocates) and must not alias `base`.
    void element_row_delta(std::size_t link_id, std::size_t array_id,
                           std::size_t element, int state,
                           const util::kernels::SplitVec& base,
                           util::kernels::SplitVec& out) const;

    /// Builds (or refreshes) the entry for `link_id` so that subsequent
    /// response_into() calls are pure reads.
    void warm(const sdr::Medium& medium, std::size_t link_id,
              const sdr::Link& link);

    /// Drops every entry (the next response per link is a miss).
    void invalidate();

    /// Folds `n` cache hits observed by a batch of warm reads. The reads
    /// themselves count nothing: their contract guarantees a warm
    /// entry (every read is a hit by construction), and the cached
    /// evaluation path is ~quarter-microsecond per call, so even a relaxed
    /// per-call increment would be measurable. Batch owners account for
    /// their reads in one amortised add instead.
    void note_batch_hits(std::uint64_t n);

    Stats stats() const {
        Stats s;
        s.hits = hits_.load(std::memory_order_relaxed);
        s.misses = misses_.load(std::memory_order_relaxed);
        s.invalidations = invalidations_.load(std::memory_order_relaxed);
        return s;
    }

    /// The warm one-member basis of `link_id`, for readers that validated
    /// it through warm() — every read form (tile-bounded spans, base, row
    /// add, fused row delta) and the table layout.
    const StackedBasis& basis(std::size_t link_id) const;

private:
    struct Entry {
        bool valid = false;
        StackedBasis::Fingerprint fingerprint{};
        StackedBasis basis;
    };

    bool current(const sdr::Medium& medium, const Entry& entry,
                 const sdr::Link& link) const;
    /// Rebuilds the entry when stale; returns true on a rebuild.
    bool refresh(const sdr::Medium& medium, std::size_t link_id,
                 const sdr::Link& link);
    /// The entry of `link_id`, required current for `link`.
    const StackedBasis& checked(const sdr::Medium& medium,
                                std::size_t link_id,
                                const sdr::Link& link) const;

    std::vector<Entry> entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace press::core
