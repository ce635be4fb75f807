#include "sdr/medium.hpp"

#include <cmath>

#include "em/channel.hpp"
#include "util/contracts.hpp"
#include "util/units.hpp"

namespace press::sdr {

Medium::Medium(em::Environment environment, phy::OfdmParams params)
    : environment_(std::move(environment)), params_(std::move(params)) {}

std::size_t Medium::add_array(surface::Array array) {
    arrays_.push_back(std::move(array));
    return arrays_.size() - 1;
}

surface::Array& Medium::array(std::size_t id) {
    PRESS_EXPECTS(id < arrays_.size(), "array id out of range");
    return arrays_[id];
}

const surface::Array& Medium::array(std::size_t id) const {
    PRESS_EXPECTS(id < arrays_.size(), "array id out of range");
    return arrays_[id];
}

Medium::EndpointKey Medium::endpoint_key(const Link& link) {
    return {link.tx.position.x,           link.tx.position.y,
            link.tx.position.z,           link.rx.position.x,
            link.rx.position.y,           link.rx.position.z,
            link.tx.antenna.peak_gain_dbi(),
            link.rx.antenna.peak_gain_dbi()};
}

const std::vector<em::Path>& Medium::environment_paths(
    const Link& link) const {
    if (env_cache_revision_ != environment_.revision()) {
        env_path_cache_.clear();
        env_path_order_.clear();
        env_cache_revision_ = environment_.revision();
    }
    const EndpointKey key = endpoint_key(link);
    auto it = env_path_cache_.find(key);
    if (it == env_path_cache_.end()) {
        if (env_path_cache_.size() == kEnvPathMemoCapacity) {
            env_path_cache_.erase(env_path_order_.front());
            env_path_order_.pop_front();
        }
        it = env_path_cache_
                 .emplace(key, environment_.trace(link.tx, link.rx,
                                                  params_.carrier_hz()))
                 .first;
        env_path_order_.push_back(key);
    }
    return it->second;
}

std::vector<em::Path> Medium::resolve_paths(const Link& link) const {
    std::vector<em::Path> paths = environment_paths(link);
    for (const surface::Array& a : arrays_) {
        const std::vector<em::Path> extra =
            a.paths(environment_, link.tx, link.rx, params_.carrier_hz());
        paths.insert(paths.end(), extra.begin(), extra.end());
    }
    return paths;
}

util::CVec Medium::frequency_response(const Link& link) const {
    return em::frequency_response(resolve_paths(link),
                                  params_.used_frequencies_hz());
}

std::vector<double> Medium::true_snr_db(const Link& link) const {
    return true_snr_db(link, frequency_response(link));
}

std::vector<double> Medium::true_snr_db(const Link& link,
                                        const util::CVec& h) const {
    const double p_sc = util::dbm_to_watt(link.profile.tx_power_dbm) /
                        static_cast<double>(params_.num_used());
    const double n_sc = util::thermal_noise_watt(
        params_.subcarrier_spacing_hz(), link.profile.noise_figure_db);
    std::vector<double> snr(h.size());
    for (std::size_t k = 0; k < h.size(); ++k) {
        const double sig = p_sc * std::norm(h[k]);
        snr[k] = util::linear_to_db(std::max(sig / n_sc, 1e-30));
    }
    return snr;
}

double Medium::estimate_noise_variance(const Link& link) const {
    // A raw LS estimate is H + w / sqrt(P_sc) with w ~ CN(0, N_sc); its
    // variance in channel units is N_sc / P_sc.
    const double p_sc = util::dbm_to_watt(link.profile.tx_power_dbm) /
                        static_cast<double>(params_.num_used());
    const double n_sc = util::thermal_noise_watt(
        params_.subcarrier_spacing_hz(), link.profile.noise_figure_db);
    return n_sc / p_sc;
}

phy::ChannelEstimate Medium::sound(const Link& link, std::size_t repeats,
                                   util::Rng& rng) const {
    return sound_with_response(link, frequency_response(link), repeats, rng);
}

phy::ChannelEstimate Medium::sound_with_response(const Link& link,
                                                 const util::CVec& h,
                                                 std::size_t repeats,
                                                 util::Rng& rng) const {
    PRESS_EXPECTS(repeats >= 2, "sounding needs at least two repetitions");
    const double var = estimate_noise_variance(link);
    std::vector<util::CVec> raw;
    raw.reserve(repeats);
    for (std::size_t r = 0; r < repeats; ++r) {
        util::CVec est(h.size());
        for (std::size_t k = 0; k < h.size(); ++k)
            est[k] = h[k] + rng.complex_gaussian(var);
        raw.push_back(std::move(est));
    }
    return phy::combine_ltf_estimates(raw);
}

phy::MimoChannelEstimate Medium::sound_mimo(
    const std::vector<em::RadiatingEndpoint>& tx_antennas,
    const std::vector<em::RadiatingEndpoint>& rx_antennas,
    const RadioProfile& profile, std::size_t repeats, util::Rng& rng) const {
    PRESS_EXPECTS(!tx_antennas.empty() && !rx_antennas.empty(),
                  "MIMO sounding needs antennas on both ends");
    PRESS_EXPECTS(repeats >= 1, "need at least one repetition");
    std::vector<std::vector<util::CVec>> columns;
    columns.reserve(tx_antennas.size());
    for (const em::RadiatingEndpoint& tx : tx_antennas) {
        std::vector<util::CVec> column;
        column.reserve(rx_antennas.size());
        for (const em::RadiatingEndpoint& rx : rx_antennas) {
            Link link{tx, rx, profile};
            const util::CVec h = frequency_response(link);
            const double var = estimate_noise_variance(link);
            util::CVec mean(h.size(), util::cd{0.0, 0.0});
            for (std::size_t r = 0; r < repeats; ++r)
                for (std::size_t k = 0; k < h.size(); ++k)
                    mean[k] += (h[k] + rng.complex_gaussian(var)) /
                               static_cast<double>(repeats);
            column.push_back(std::move(mean));
        }
        columns.push_back(std::move(column));
    }
    return phy::assemble_mimo(columns);
}

}  // namespace press::sdr
