// The factored channel basis: the searcher's fast evaluation path.
//
// For a fixed scene geometry, link endpoints and element load banks, the
// channel of a link decomposes into a configuration-independent part and a
// per-element basis:
//
//     H[k] = H_static[k] + sum_e B[e][ state_e ][k]
//
// where H_static is the CFR of the environment paths (direct + wall images
// + scatterers + static diffuse multipath) and B[e][s] is the CFR of
// element e's two-hop re-radiation under load state s — both independent
// of which configuration is applied. Scoring a candidate configuration
// then costs a row-gather plus a complex accumulation over
// elements x subcarriers (a sparse complex GEMV) instead of an image-
// method re-trace of the scene, which is what lets a controller sweep
// thousands of candidates inside one coherence window.
//
// A StackedBasis holds that decomposition for the member links of one
// transmitter, side by side:
//
//     row r = [ member 0's row r | member 1's row r | ... ]
//
// Each member's segment is its split-complex CFR, padded from num_sc to
// stride (a multiple of util::kernels::kLanes; padding stays zero). A
// row's re segments for every member are contiguous, followed by all im
// segments, so one gathered row is ONE forward-striding memory stream and
// one row selection (which depends only on the configuration and the
// array's arity, never on the receiver) serves every member. The
// candidate accumulation is tiled over kTileSubcarriers-double blocks
// with the element walk innermost, so the scratch tile stays resident in
// L1 while thousands of rows stream past it.
//
// It is the one implementation behind both indexers: core::LinkCache
// keeps a one-member stack per link (reads sized num_sc), and
// core::MultiLinkCache one stack per transmitter group (reads sized to
// the padded stack width).
//
// Bit-identity: the reconstruction adds the exact same per-path terms in
// the exact same order as the direct synthesis (environment paths first,
// then each array's elements in ascending order), so a member's response
// is bit-identical to em::frequency_response(medium.resolve_paths(link)).
// The kernels are element-wise (no cross-position reduction), so neither
// the tiling, nor the span bounding, nor a segment's position inside the
// stack changes any double's bits.
//
// Coordinate sweeps get an incremental form: a read may leave ONE
// element's row out entirely (skip_element), and add_row() / row_delta()
// add a single row on top. Because the swept row is always added last —
// whether the base was cached (delta path) or recomputed per candidate —
// both paths produce the exact same bits.
//
// Tile-bounded reads (DESIGN.md §15): every read, row add and delta takes
// optional half-open subcarrier spans, applied inside EVERY member
// segment. Only the doubles inside the spans are written — bit-identical
// to the full-width call on those positions — and everything outside is
// left untouched and must not be read. Spans must be ascending,
// non-overlapping and inside [0, num_sc); phy::RuMask::tile_spans
// produces exactly that. A null span list means the full read width.
//
// Reads are const and touch only immutable state: safe from concurrent
// batch workers. They never allocate once `out` has reached its size.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "press/config.hpp"
#include "sdr/medium.hpp"
#include "util/kernels.hpp"

namespace press::core {

class StackedBasis {
public:
    /// Subcarrier-tile width (doubles) of the blocked accumulation: a tile
    /// of the scratch (2 x 256 doubles = 4 KiB) plus one basis row segment
    /// fits comfortably in L1 while thousands of rows stream through.
    static constexpr std::size_t kTileSubcarriers = 256;

    /// skip_element value that leaves no element out.
    static constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);

    /// Link endpoint fingerprint: per endpoint, position (3) then antenna
    /// peak gain, omni flag, beamwidth and boresight (6) — tx first.
    /// Fixed arity, so a validation compares without allocating. Endpoint
    /// velocities are ignored: responses are evaluated at elapsed time
    /// zero, where Doppler contributes no rotation.
    static constexpr std::size_t kFingerprintSize = 18;
    using Fingerprint = std::array<double, kFingerprintSize>;
    static Fingerprint fingerprint(const sdr::Link& link);

    /// (Re)builds the stack for `num_members` links sharing one
    /// transmitter, in slot order. `pad_reads` sizes reads to the padded
    /// stack width; without it a read is sized num_sc (one-member stacks).
    void build(const sdr::Medium& medium, const sdr::Link* const* members,
               std::size_t num_members, bool pad_reads);

    /// True when the environment revision and every array's structure
    /// revision still match the build (fault installation, trim and
    /// geometry edits bump them; applying configurations does not).
    bool current(const sdr::Medium& medium) const;

    /// Response of every member with array `array_id`'s states overridden
    /// by `config` (other arrays at their current states; array_id ==
    /// num_arrays() overrides none) and element `skip_element` of that
    /// array left out. Resizes `out` to read_width(); writes the spans
    /// (null: the full read width).
    void read(const sdr::Medium& medium, std::size_t array_id,
              const surface::Config& config, std::size_t skip_element,
              const util::kernels::IndexRange* ranges, std::size_t num_ranges,
              util::kernels::SplitVec& out) const;

    /// h += element `element`'s row for load state `state`, over the spans.
    void add_row(std::size_t array_id, std::size_t element, int state,
                 const util::kernels::IndexRange* ranges,
                 std::size_t num_ranges, util::kernels::SplitVec& h) const;

    /// Fused coordinate delta: out = base + element `element`'s row for
    /// load state `state` in ONE pass over the spans (base untouched) —
    /// bit-identical to copy-then-add_row at 60% of the memory traffic.
    /// `base` and `out` must already be read_width() long (the call never
    /// allocates) and must not alias.
    void row_delta(std::size_t array_id, std::size_t element, int state,
                   const util::kernels::IndexRange* ranges,
                   std::size_t num_ranges, const util::kernels::SplitVec& base,
                   util::kernels::SplitVec& out) const;

    std::size_t num_members() const { return num_members_; }
    std::size_t num_sc() const { return num_sc_; }
    /// Doubles per member segment (num_sc padded to kernels::kLanes).
    std::size_t stride() const { return stride_; }
    /// Doubles per component span of one stacked row.
    std::size_t width() const { return width_; }
    /// Length of every read: width(), or num_sc without pad_reads.
    std::size_t read_width() const { return read_width_; }

    std::size_t num_arrays() const { return arrays_.size(); }
    std::size_t num_elements(std::size_t array_id) const;
    /// Element-state rows of array `array_id`.
    std::size_t rows(std::size_t array_id) const;
    /// Bytes of array `array_id`'s row table.
    std::size_t table_bytes(std::size_t array_id) const;
    /// Bytes of the row-selection metadata (radices, row offsets) summed
    /// over arrays.
    std::size_t metadata_bytes() const;
    /// Bytes of the stacked static CFR.
    std::size_t static_bytes() const { return 2 * width() * sizeof(double); }

private:
    /// One array's stacked rows. Row r's re span starts at
    /// table[r * 2 * width], its im span `width` doubles later.
    struct ArrayRows {
        std::vector<int> radices;             ///< states per element
        std::vector<std::size_t> row_offset;  ///< element -> first row
        std::vector<double> table;            ///< rows x [re | im] blocks
    };

    /// Which doubles an operation touches: the span list repeated inside
    /// every member segment, or (no list) the whole read width.
    struct Window {
        const util::kernels::IndexRange* ranges;
        std::size_t num_ranges;
        std::size_t slots;
        std::size_t stride;
        std::size_t full_len;

        /// Calls fn(offset, len) for each touched span, ascending.
        template <typename Fn>
        void for_each(Fn&& fn) const {
            if (ranges == nullptr) {
                fn(std::size_t{0}, full_len);
                return;
            }
            for (std::size_t s = 0; s < slots; ++s)
                for (std::size_t r = 0; r < num_ranges; ++r)
                    fn(s * stride + ranges[r].offset, ranges[r].len);
        }
    };
    Window window(const util::kernels::IndexRange* ranges,
                  std::size_t num_ranges) const;

    /// Row `r`'s re span; its im span follows `width_` doubles later.
    const double* row(const ArrayRows& a, std::size_t r) const {
        return a.table.data() + r * 2 * width_;
    }
    /// Validated row index of (array, element, state).
    std::size_t row_of(std::size_t array_id, std::size_t element,
                       int state) const;
    void add_rows(const ArrayRows& a, const surface::Config& config,
                  std::size_t skip_element, const Window& w,
                  util::kernels::SplitVec& h) const;

    std::size_t num_members_ = 0;
    std::size_t num_sc_ = 0;
    std::size_t stride_ = 0;
    std::size_t width_ = 0;
    std::size_t read_width_ = 0;
    std::uint64_t env_revision_ = 0;
    std::vector<std::uint64_t> array_revisions_;
    util::kernels::SplitVec h_static_;  ///< stacked static CFR
    std::vector<ArrayRows> arrays_;
};

}  // namespace press::core
