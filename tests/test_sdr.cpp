// Tests for the SDR layer: radio profiles, the Medium measurement path
// (link budgets, sounding, caching) and the time-domain chain, including
// the frequency-domain / time-domain cross-validation.
#include <gtest/gtest.h>

#include <cmath>

#include "sdr/medium.hpp"
#include "sdr/profile.hpp"
#include "sdr/timedomain.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace press::sdr {
namespace {

using util::cd;
using util::CVec;

Medium free_space_medium() {
    return Medium(em::Environment{}, phy::OfdmParams::wifi20());
}

Link simple_link(double d = 10.0) {
    Link link;
    link.tx = {{0, 0, 0}, em::Antenna::omni(0.0), {}};
    link.rx = {{d, 0, 0}, em::Antenna::omni(0.0), {}};
    link.profile = RadioProfile::warp_v3();
    return link;
}

TEST(Profile, PresetsAreSane) {
    for (const RadioProfile& p :
         {RadioProfile::warp_v3(), RadioProfile::usrp_n210(),
          RadioProfile::usrp_x310()}) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.noise_figure_db, 0.0);
        EXPECT_GE(p.num_antennas, 1);
        EXPECT_GE(p.max_cfo_hz, 0.0);
    }
    EXPECT_EQ(RadioProfile::usrp_x310().num_antennas, 2);
}

TEST(Medium, TrueSnrMatchesManualBudget) {
    Medium medium = free_space_medium();
    const Link link = simple_link(10.0);
    const auto snr = medium.true_snr_db(link);
    ASSERT_EQ(snr.size(), 52u);
    // Manual budget: Friis |H|^2 x per-subcarrier power over thermal noise.
    const double lambda = util::wavelength(2.462e9);
    const double h2 =
        std::pow(lambda / (4.0 * util::kPi * 10.0), 2.0);
    const double p_sc =
        util::dbm_to_watt(link.profile.tx_power_dbm) / 52.0;
    const double n_sc =
        util::thermal_noise_watt(312500.0, link.profile.noise_figure_db);
    const double expected = util::linear_to_db(p_sc * h2 / n_sc);
    // Free space: every subcarrier identical (tiny wavelength dispersion).
    for (double s : snr) EXPECT_NEAR(s, expected, 0.01);
}

TEST(Medium, SoundEstimatesTrackTruth) {
    Medium medium = free_space_medium();
    const Link link = simple_link(10.0);
    util::Rng rng(5);
    const auto est = medium.sound(link, 64, rng);
    const CVec h = medium.frequency_response(link);
    for (std::size_t k = 0; k < h.size(); ++k)
        EXPECT_NEAR(std::abs(est.h[k]), std::abs(h[k]),
                    0.25 * std::abs(h[k]));
    // Measured SNR near true SNR (generous statistical tolerance).
    const auto true_snr = medium.true_snr_db(link);
    const auto meas_snr = est.snr_db();
    EXPECT_NEAR(util::mean(meas_snr), util::mean(true_snr), 3.0);
}

TEST(Medium, EstimateNoiseVarianceFormula) {
    Medium medium = free_space_medium();
    const Link link = simple_link();
    const double p_sc =
        util::dbm_to_watt(link.profile.tx_power_dbm) / 52.0;
    const double n_sc =
        util::thermal_noise_watt(312500.0, link.profile.noise_figure_db);
    EXPECT_NEAR(medium.estimate_noise_variance(link), n_sc / p_sc,
                1e-12 * n_sc / p_sc);
}

TEST(Medium, ArrayChangesResponse) {
    Medium medium = free_space_medium();
    surface::Array array;
    array.add_element(surface::Element::sp4t_prototype(
        {5, 2, 0}, em::Antenna::omni(12.0), 2.462e9));
    const std::size_t id = medium.add_array(std::move(array));
    const Link link = simple_link(10.0);
    const CVec h_on = medium.frequency_response(link);
    medium.array(id).apply({3});  // absorptive
    const CVec h_off = medium.frequency_response(link);
    EXPECT_GT(util::max_abs_diff(h_on, h_off), 1e-9);
    // With the element absorptive the response reduces to ~the direct ray.
    Medium bare = free_space_medium();
    const CVec h_direct = bare.frequency_response(link);
    for (std::size_t k = 0; k < h_direct.size(); ++k)
        EXPECT_NEAR(std::abs(h_off[k]), std::abs(h_direct[k]),
                    0.05 * std::abs(h_direct[k]));
}

TEST(Medium, EnvironmentMutationInvalidatesCache) {
    Medium medium = free_space_medium();
    const Link link = simple_link(10.0);
    const CVec before = medium.frequency_response(link);
    em::Scatterer s;
    s.position = {5, 3, 0};
    s.reflectivity = {0.5, 0.0};
    medium.environment().add_scatterer(s);
    const CVec after = medium.frequency_response(link);
    EXPECT_GT(util::max_abs_diff(before, after), 1e-9);
}

TEST(Medium, CachedTraceIsStable) {
    Medium medium = free_space_medium();
    const Link link = simple_link(10.0);
    const CVec a = medium.frequency_response(link);
    const CVec b = medium.frequency_response(link);
    EXPECT_LT(util::max_abs_diff(a, b), 1e-15);
}

// The environment path memo stays bounded however far an endpoint walks,
// and a pair traced again after its eviction gets the same paths, bit for
// bit.
TEST(Medium, EnvPathMemoIsBoundedAndRetracesIdentically) {
    em::Environment env;
    em::Scatterer s;
    s.position = {5, 3, 0};
    s.reflectivity = {0.5, 0.0};
    env.add_scatterer(s);
    const Medium medium(std::move(env), phy::OfdmParams::wifi20());
    const Link first = simple_link(10.0);
    const std::vector<em::Path> traced = medium.environment_paths(first);
    ASSERT_GT(traced.size(), 1u);

    Link walker = first;
    for (std::size_t step = 0; step < 3 * Medium::kEnvPathMemoCapacity;
         ++step) {
        walker.rx.position.y += 0.002;
        medium.environment_paths(walker);
        ASSERT_LE(medium.env_path_memo_size(), Medium::kEnvPathMemoCapacity);
    }
    EXPECT_EQ(medium.env_path_memo_size(), Medium::kEnvPathMemoCapacity);

    const std::vector<em::Path> retraced = medium.environment_paths(first);
    ASSERT_EQ(retraced.size(), traced.size());
    for (std::size_t i = 0; i < traced.size(); ++i) {
        EXPECT_EQ(retraced[i].gain, traced[i].gain);
        EXPECT_EQ(retraced[i].delay_s, traced[i].delay_s);
        EXPECT_EQ(retraced[i].departure.x, traced[i].departure.x);
        EXPECT_EQ(retraced[i].departure.y, traced[i].departure.y);
        EXPECT_EQ(retraced[i].departure.z, traced[i].departure.z);
        EXPECT_EQ(retraced[i].arrival.x, traced[i].arrival.x);
        EXPECT_EQ(retraced[i].arrival.y, traced[i].arrival.y);
        EXPECT_EQ(retraced[i].arrival.z, traced[i].arrival.z);
        EXPECT_EQ(retraced[i].doppler_hz, traced[i].doppler_hz);
        EXPECT_EQ(retraced[i].kind, traced[i].kind);
        EXPECT_EQ(retraced[i].element_index, traced[i].element_index);
    }
}

TEST(Medium, SoundMimoShape) {
    Medium medium = free_space_medium();
    std::vector<em::RadiatingEndpoint> txs = {
        {{0, 0, 0}, em::Antenna::omni(0.0), {}},
        {{0, 0.06, 0}, em::Antenna::omni(0.0), {}}};
    std::vector<em::RadiatingEndpoint> rxs = {
        {{8, 0, 0}, em::Antenna::omni(0.0), {}},
        {{8, 0.06, 0}, em::Antenna::omni(0.0), {}}};
    util::Rng rng(6);
    const auto est = medium.sound_mimo(txs, rxs, RadioProfile::usrp_x310(),
                                       4, rng);
    EXPECT_EQ(est.num_subcarriers(), 52u);
    EXPECT_EQ(est.num_tx(), 2u);
    EXPECT_EQ(est.num_rx(), 2u);
}

TEST(Medium, SoundNeedsTwoRepeats) {
    Medium medium = free_space_medium();
    util::Rng rng(1);
    EXPECT_THROW(medium.sound(simple_link(), 1, rng),
                 util::ContractViolation);
}

// ----------------------------------------------------------- timedomain

TEST(TimeDomain, HighSnrFrameDecodes) {
    Medium medium = free_space_medium();
    Link link = simple_link(5.0);  // short range -> very high SNR
    util::Rng rng(7);
    phy::FrameSpec spec;
    spec.num_ltf = 4;
    spec.num_data = 6;
    spec.modulation = phy::Modulation::kQam16;
    TimeDomainConfig cfg;
    const TimeDomainResult res = exchange_frame(medium, link, spec, rng, cfg);
    EXPECT_EQ(res.bit_errors, 0u);
    EXPECT_LT(res.evm_rms, 0.1);
}

TEST(TimeDomain, EstimateMatchesFrequencyDomain) {
    // The headline validation: the full sample-level chain and the
    // frequency-domain shortcut must report the same channel magnitudes.
    Medium medium(em::Environment{}, phy::OfdmParams::wifi20());
    em::Scatterer s;
    s.position = {4, 2, 0};
    s.reflectivity = {0.4, 0.2};
    medium.environment().add_scatterer(s);

    Link link = simple_link(8.0);
    util::Rng rng(8);
    phy::FrameSpec spec;
    spec.num_ltf = 8;
    spec.num_data = 0;
    TimeDomainConfig cfg;
    cfg.apply_cfo = false;
    cfg.apply_phase_noise = false;
    const TimeDomainResult res = exchange_frame(medium, link, spec, rng, cfg);
    const CVec h_fd = medium.frequency_response(link);
    ASSERT_EQ(res.estimate.h.size(), h_fd.size());
    for (std::size_t k = 0; k < h_fd.size(); ++k)
        EXPECT_NEAR(std::abs(res.estimate.h[k]), std::abs(h_fd[k]),
                    0.05 * std::abs(h_fd[k]) + 1e-9)
            << "subcarrier " << k;
}

TEST(TimeDomain, SnrAgreesWithLinkBudget) {
    Medium medium = free_space_medium();
    Link link = simple_link(30.0);
    util::Rng rng(9);
    phy::FrameSpec spec;
    spec.num_ltf = 16;
    spec.num_data = 0;
    TimeDomainConfig cfg;
    cfg.apply_cfo = false;
    cfg.apply_phase_noise = false;
    // Average several frames for a stable SNR estimate.
    std::vector<double> mean_snrs;
    for (int i = 0; i < 8; ++i) {
        const TimeDomainResult res =
            exchange_frame(medium, link, spec, rng, cfg);
        mean_snrs.push_back(util::mean(res.estimate.snr_db(90.0, -90.0)));
    }
    const auto true_snr = medium.true_snr_db(link);
    EXPECT_NEAR(util::mean(mean_snrs), util::mean(true_snr), 2.5);
}

TEST(TimeDomain, CfoAppliedAndEstimated) {
    Medium medium = free_space_medium();
    Link link = simple_link(5.0);
    link.profile.max_cfo_hz = 2000.0;
    util::Rng rng(10);
    phy::FrameSpec spec;
    spec.num_ltf = 4;
    spec.num_data = 2;
    TimeDomainConfig cfg;
    cfg.apply_phase_noise = false;
    const TimeDomainResult res = exchange_frame(medium, link, spec, rng, cfg);
    EXPECT_NE(res.applied_cfo_hz, 0.0);
    EXPECT_NEAR(res.rx.cfo_estimate_hz, res.applied_cfo_hz,
                std::abs(res.applied_cfo_hz) * 0.1 + 20.0);
    EXPECT_EQ(res.bit_errors, 0u);  // corrected
}

TEST(TimeDomain, UncorrectedCfoDegrades) {
    Medium medium = free_space_medium();
    Link link = simple_link(5.0);
    link.profile.max_cfo_hz = 5000.0;
    util::Rng rng(11);
    phy::FrameSpec spec;
    spec.num_ltf = 2;
    spec.num_data = 10;
    spec.modulation = phy::Modulation::kQam64;
    TimeDomainConfig cfg;
    cfg.correct_cfo = false;
    cfg.apply_phase_noise = false;
    std::size_t total_errors = 0;
    for (int i = 0; i < 4; ++i)
        total_errors +=
            exchange_frame(medium, link, spec, rng, cfg).bit_errors;
    EXPECT_GT(total_errors, 0u);
}

TEST(TimeDomain, PressElementVisibleInTimeDomain) {
    // A strong PRESS element near the link must change the time-domain
    // channel estimate between its reflective and absorptive states.
    Medium medium = free_space_medium();
    surface::Array array;
    array.add_element(surface::Element::sp4t_prototype(
        {4, 1.0, 0}, em::Antenna::omni(14.0), 2.462e9));
    const std::size_t id = medium.add_array(std::move(array));
    Link link = simple_link(8.0);
    phy::FrameSpec spec;
    spec.num_ltf = 8;
    TimeDomainConfig cfg;
    cfg.apply_cfo = false;
    cfg.apply_phase_noise = false;

    util::Rng rng(12);
    medium.array(id).apply({0});
    const auto on = exchange_frame(medium, link, spec, rng, cfg);
    medium.array(id).apply({3});
    const auto off = exchange_frame(medium, link, spec, rng, cfg);
    double max_diff_db = 0.0;
    for (std::size_t k = 0; k < on.estimate.h.size(); ++k) {
        const double d = std::abs(
            util::amplitude_to_db(std::abs(on.estimate.h[k])) -
            util::amplitude_to_db(std::abs(off.estimate.h[k])));
        max_diff_db = std::max(max_diff_db, d);
    }
    EXPECT_GT(max_diff_db, 0.2);
}

TEST(TimeDomain, EmptyTransmitThrows) {
    Medium medium = free_space_medium();
    util::Rng rng(1);
    EXPECT_THROW(
        transmit_through(medium, simple_link(), {}, rng, TimeDomainConfig{}),
        util::ContractViolation);
}

}  // namespace
}  // namespace press::sdr
