#include "core/stacked_basis.hpp"

#include <algorithm>

#include "em/channel.hpp"
#include "util/contracts.hpp"

namespace press::core {

StackedBasis::Fingerprint StackedBasis::fingerprint(const sdr::Link& link) {
    Fingerprint fp{};
    std::size_t i = 0;
    for (const em::RadiatingEndpoint* end : {&link.tx, &link.rx}) {
        fp[i++] = end->position.x;
        fp[i++] = end->position.y;
        fp[i++] = end->position.z;
        fp[i++] = end->antenna.peak_gain_dbi();
        fp[i++] = end->antenna.is_omni() ? 1.0 : 0.0;
        fp[i++] = end->antenna.beamwidth_rad();
        fp[i++] = end->antenna.boresight().x;
        fp[i++] = end->antenna.boresight().y;
        fp[i++] = end->antenna.boresight().z;
    }
    return fp;
}

void StackedBasis::build(const sdr::Medium& medium,
                         const sdr::Link* const* members,
                         std::size_t num_members, bool pad_reads) {
    PRESS_EXPECTS(num_members > 0, "a basis stack needs at least one link");
    const std::vector<double>& freqs = medium.ofdm().used_frequencies_hz();
    const double carrier_hz = medium.ofdm().carrier_hz();
    constexpr std::size_t kLanes = util::kernels::kLanes;
    num_members_ = num_members;
    num_sc_ = freqs.size();
    stride_ = (num_sc_ + kLanes - 1) / kLanes * kLanes;
    width_ = num_members_ * stride_;
    read_width_ = pad_reads ? width_ : num_sc_;

    // Static CFR: member slot s holds that link's environment response in
    // its first num_sc doubles, zero padding after.
    h_static_.assign_zero(width_);
    for (std::size_t s = 0; s < num_members; ++s) {
        const util::CVec h = em::frequency_response(
            medium.environment_paths(*members[s]), freqs);
        util::kernels::deinterleave(h.data(), h_static_.re.data() + s * stride_,
                                    h_static_.im.data() + s * stride_,
                                    num_sc_);
    }

    // Per array, the (element, state) rows of every member side by side.
    // Row indexing — radices, row offsets — depends only on the array, so
    // the first member lays it out and the others must agree.
    util::CVec scratch;
    arrays_.resize(medium.num_arrays());
    array_revisions_.resize(medium.num_arrays());
    for (std::size_t a = 0; a < medium.num_arrays(); ++a) {
        const surface::Array& array = medium.array(a);
        ArrayRows& rows = arrays_[a];
        rows.radices.clear();
        rows.row_offset.clear();
        for (std::size_t s = 0; s < num_members; ++s) {
            const std::vector<std::vector<em::Path>> per_state =
                array.state_paths(medium.environment(), members[s]->tx,
                                  members[s]->rx, carrier_hz);
            if (s == 0) {
                std::size_t n = 0;
                for (const auto& states : per_state) {
                    rows.radices.push_back(static_cast<int>(states.size()));
                    rows.row_offset.push_back(n);
                    n += states.size();
                }
                rows.table.assign(n * 2 * width_, 0.0);
            }
            PRESS_EXPECTS(per_state.size() == rows.radices.size(),
                          "element count differs across stack members");
            for (std::size_t e = 0; e < per_state.size(); ++e) {
                PRESS_EXPECTS(static_cast<int>(per_state[e].size()) ==
                                  rows.radices[e],
                              "element state arity differs across stack "
                              "members");
                std::size_t r = rows.row_offset[e];
                for (const em::Path& p : per_state[e]) {
                    scratch.assign(num_sc_, util::cd{0.0, 0.0});
                    em::accumulate_frequency_response(scratch, {p}, freqs);
                    double* re = rows.table.data() + r * 2 * width_;
                    util::kernels::deinterleave(scratch.data(),
                                                re + s * stride_,
                                                re + width_ + s * stride_,
                                                num_sc_);
                    ++r;
                }
            }
        }
        array_revisions_[a] = array.structure_revision();
    }
    env_revision_ = medium.environment().revision();
}

bool StackedBasis::current(const sdr::Medium& medium) const {
    if (num_members_ == 0) return false;
    if (env_revision_ != medium.environment().revision()) return false;
    if (array_revisions_.size() != medium.num_arrays()) return false;
    for (std::size_t a = 0; a < array_revisions_.size(); ++a) {
        if (array_revisions_[a] != medium.array(a).structure_revision())
            return false;
    }
    return true;
}

StackedBasis::Window StackedBasis::window(
    const util::kernels::IndexRange* ranges, std::size_t num_ranges) const {
    for (std::size_t r = 0; ranges != nullptr && r < num_ranges; ++r)
        PRESS_EXPECTS(ranges[r].offset + ranges[r].len <= num_sc_,
                      "span exceeds the cached subcarrier count");
    return {ranges, num_ranges, num_members_, stride_, read_width_};
}

std::size_t StackedBasis::row_of(std::size_t array_id, std::size_t element,
                                 int state) const {
    PRESS_EXPECTS(array_id < arrays_.size(),
                  "array id out of the cached range");
    const ArrayRows& rows = arrays_[array_id];
    PRESS_EXPECTS(element < rows.radices.size(),
                  "element id out of the cached range");
    PRESS_EXPECTS(state >= 0 && state < rows.radices[element],
                  "configuration state out of the cached range");
    return rows.row_offset[element] + static_cast<std::size_t>(state);
}

void StackedBasis::add_rows(const ArrayRows& a,
                            const surface::Config& config,
                            std::size_t skip_element, const Window& w,
                            util::kernels::SplitVec& h) const {
    PRESS_EXPECTS(config.size() == a.radices.size(),
                  "configuration arity must match the cached array");
    for (std::size_t e = 0; e < config.size(); ++e) {
        if (e == skip_element) continue;
        PRESS_EXPECTS(config[e] >= 0 && config[e] < a.radices[e],
                      "configuration state out of the cached range");
    }
    const util::kernels::Dispatch d = util::kernels::active();
    // Tile each span over subcarrier blocks with the element walk
    // innermost: the scratch tile stays L1-resident while the selected
    // rows stream past. Each double still receives its element terms in
    // ascending element order, so neither the tiling nor the span
    // bounding changes the bits of any touched double.
    w.for_each([&](std::size_t offset, std::size_t len) {
        const std::size_t end = offset + len;
        for (std::size_t sc = offset; sc < end; sc += kTileSubcarriers) {
            const std::size_t n = std::min(kTileSubcarriers, end - sc);
            double* tile_re = h.re.data() + sc;
            double* tile_im = h.im.data() + sc;
            for (std::size_t e = 0; e < config.size(); ++e) {
                if (e == skip_element) continue;
                const double* row_re =
                    row(a, a.row_offset[e] +
                               static_cast<std::size_t>(config[e]));
                util::kernels::accumulate(d, row_re + sc, row_re + width_ + sc,
                                          tile_re, tile_im, n);
            }
        }
    });
}

void StackedBasis::read(const sdr::Medium& medium, std::size_t array_id,
                        const surface::Config& config,
                        std::size_t skip_element,
                        const util::kernels::IndexRange* ranges,
                        std::size_t num_ranges,
                        util::kernels::SplitVec& out) const {
    PRESS_EXPECTS(array_id <= arrays_.size(),
                  "array id out of the cached range");
    PRESS_EXPECTS(skip_element == kNoSkip ||
                      (array_id < arrays_.size() &&
                       skip_element < arrays_[array_id].radices.size()),
                  "element id out of the cached range");
    const Window w = window(ranges, num_ranges);
    out.resize(read_width_);
    const util::kernels::Dispatch d = util::kernels::active();
    w.for_each([&](std::size_t offset, std::size_t len) {
        util::kernels::copy(d, h_static_.re.data() + offset,
                            h_static_.im.data() + offset,
                            out.re.data() + offset, out.im.data() + offset,
                            len);
    });
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
        // Branch instead of a ternary: a `ref : prvalue` conditional's
        // common type is a prvalue, which would copy (allocate) `config`
        // on every read of the candidate's own array.
        if (a == array_id) {
            add_rows(arrays_[a], config, skip_element, w, out);
        } else {
            add_rows(arrays_[a], medium.array(a).current_config(), kNoSkip,
                     w, out);
        }
    }
}

void StackedBasis::add_row(std::size_t array_id, std::size_t element,
                           int state, const util::kernels::IndexRange* ranges,
                           std::size_t num_ranges,
                           util::kernels::SplitVec& h) const {
    const std::size_t r = row_of(array_id, element, state);
    const double* row_re = row(arrays_[array_id], r);
    PRESS_EXPECTS(h.size() == read_width_,
                  "scratch does not match the cached read width");
    const util::kernels::Dispatch d = util::kernels::active();
    window(ranges, num_ranges)
        .for_each([&](std::size_t offset, std::size_t len) {
            util::kernels::accumulate(d, row_re + offset,
                                      row_re + width_ + offset,
                                      h.re.data() + offset,
                                      h.im.data() + offset, len);
        });
}

void StackedBasis::row_delta(std::size_t array_id, std::size_t element,
                             int state,
                             const util::kernels::IndexRange* ranges,
                             std::size_t num_ranges,
                             const util::kernels::SplitVec& base,
                             util::kernels::SplitVec& out) const {
    const std::size_t r = row_of(array_id, element, state);
    const double* row_re = row(arrays_[array_id], r);
    PRESS_EXPECTS(base.size() == read_width_,
                  "base does not match the cached read width");
    PRESS_EXPECTS(out.size() == read_width_,
                  "out must be pre-sized to the cached read width");
    const util::kernels::Dispatch d = util::kernels::active();
    window(ranges, num_ranges)
        .for_each([&](std::size_t offset, std::size_t len) {
            util::kernels::copy_accumulate(
                d, base.re.data() + offset, base.im.data() + offset,
                row_re + offset, row_re + width_ + offset,
                out.re.data() + offset, out.im.data() + offset, len);
        });
}

std::size_t StackedBasis::num_elements(std::size_t array_id) const {
    PRESS_EXPECTS(array_id < arrays_.size(),
                  "array id out of the cached range");
    return arrays_[array_id].radices.size();
}

std::size_t StackedBasis::rows(std::size_t array_id) const {
    PRESS_EXPECTS(array_id < arrays_.size(),
                  "array id out of the cached range");
    return arrays_[array_id].table.size() / (2 * width_);
}

std::size_t StackedBasis::table_bytes(std::size_t array_id) const {
    PRESS_EXPECTS(array_id < arrays_.size(),
                  "array id out of the cached range");
    return arrays_[array_id].table.size() * sizeof(double);
}

std::size_t StackedBasis::metadata_bytes() const {
    std::size_t bytes = 0;
    for (const ArrayRows& rows : arrays_)
        bytes += rows.radices.size() * sizeof(int) +
                 rows.row_offset.size() * sizeof(std::size_t);
    return bytes;
}

}  // namespace press::core
