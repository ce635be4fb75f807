// The wireless medium: environment + PRESS arrays + OFDM numerology.
//
// Medium is where a measurement comes from in this library. It resolves the
// full multipath (environment paths plus the re-radiation paths of every
// installed PRESS array under its current configuration), synthesizes the
// per-subcarrier channel, and simulates LTF-based channel sounding with the
// thermal-noise link budget of a radio profile.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <map>
#include <vector>

#include "em/environment.hpp"
#include "phy/chanest.hpp"
#include "phy/mimo.hpp"
#include "phy/ofdm.hpp"
#include "press/array.hpp"
#include "sdr/profile.hpp"
#include "util/rng.hpp"

namespace press::sdr {

/// A unidirectional link between two placed radios.
struct Link {
    em::RadiatingEndpoint tx;
    em::RadiatingEndpoint rx;
    RadioProfile profile = RadioProfile::warp_v3();
};

/// Environment + arrays + numerology; the object every experiment measures
/// through.
class Medium {
public:
    Medium(em::Environment environment, phy::OfdmParams params);

    /// Mutable access to the scene. Any actual mutation bumps the
    /// environment's revision stamp, which drops the path cache on the
    /// next lookup — so holding this reference across mutations is safe.
    em::Environment& environment() { return environment_; }
    const em::Environment& environment() const { return environment_; }

    const phy::OfdmParams& ofdm() const { return params_; }

    /// Installs an array; returns its id.
    std::size_t add_array(surface::Array array);

    std::size_t num_arrays() const { return arrays_.size(); }
    surface::Array& array(std::size_t id);
    const surface::Array& array(std::size_t id) const;

    /// Every path between the link's endpoints: direct, walls, scatterers,
    /// and each array's element re-radiations under current configurations.
    std::vector<em::Path> resolve_paths(const Link& link) const;

    /// The environment-only paths of a link (direct + walls + scatterers +
    /// static diffuse), cached per endpoint pair; array re-radiation is
    /// excluded. The configuration-independent half of a factored channel.
    /// The reference stays valid until the environment mutates or a call
    /// for a pair not in the memo evicts it.
    const std::vector<em::Path>& environment_paths(const Link& link) const;

    /// Endpoint pairs the environment path memo holds at most. Well above
    /// the largest link count any scene registers, so a static scene never
    /// evicts; under mobility each new pair evicts the oldest-traced one,
    /// which bounds the memo (re-tracing a pair gives the same paths).
    static constexpr std::size_t kEnvPathMemoCapacity = 256;
    /// Endpoint pairs currently memoised.
    std::size_t env_path_memo_size() const { return env_path_cache_.size(); }

    /// Noise-free channel frequency response on the used subcarriers.
    util::CVec frequency_response(const Link& link) const;

    /// Exact per-subcarrier SNR (dB) from the link budget: per-subcarrier
    /// TX power x |H|^2 over thermal noise in one subcarrier bandwidth.
    std::vector<double> true_snr_db(const Link& link) const;

    /// Same link budget applied to a caller-supplied response `h` (e.g.
    /// one reconstructed by a core::LinkCache instead of a fresh trace).
    std::vector<double> true_snr_db(const Link& link,
                                    const util::CVec& h) const;

    /// Per-subcarrier noise-to-signal-scale: the variance of a single raw
    /// LTF channel estimate for this link (channel-units^2).
    double estimate_noise_variance(const Link& link) const;

    /// Simulates `repeats` LTF soundings: each raw estimate is the true CFR
    /// plus complex Gaussian estimator noise at the link budget's level.
    phy::ChannelEstimate sound(const Link& link, std::size_t repeats,
                               util::Rng& rng) const;

    /// Like sound(), but against a caller-supplied true response `h`
    /// instead of re-synthesizing it from a trace. The fast path of a
    /// cached observe: identical noise stream and estimator behavior.
    phy::ChannelEstimate sound_with_response(const Link& link,
                                             const util::CVec& h,
                                             std::size_t repeats,
                                             util::Rng& rng) const;

    /// Sounds an Nt x Nr MIMO channel: TX antennas take turns transmitting
    /// LTFs (orthogonal in time), each RX antenna estimates its row.
    /// `repeats` raw estimates are averaged per entry.
    phy::MimoChannelEstimate sound_mimo(
        const std::vector<em::RadiatingEndpoint>& tx_antennas,
        const std::vector<em::RadiatingEndpoint>& rx_antennas,
        const RadioProfile& profile, std::size_t repeats,
        util::Rng& rng) const;

private:
    // Environment paths depend only on endpoint placement (array paths are
    // re-resolved per configuration); sweeping 64 configurations x 10
    // trials re-traces the same static scene, so cache per endpoint pair.
    using EndpointKey = std::array<double, 8>;
    static EndpointKey endpoint_key(const Link& link);

    em::Environment environment_;
    phy::OfdmParams params_;
    std::vector<surface::Array> arrays_;
    mutable std::map<EndpointKey, std::vector<em::Path>> env_path_cache_;
    /// Memo keys in insertion order: the eviction queue.
    mutable std::deque<EndpointKey> env_path_order_;
    /// Environment revision the path cache was filled against; a mismatch
    /// (scene mutated through any Environment mutator) drops the cache.
    mutable std::uint64_t env_cache_revision_ = 0;
};

}  // namespace press::sdr
