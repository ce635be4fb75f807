// Unit and property tests for the util layer: units, RNG, complex vectors,
// FFTs, matrices/SVD and statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "util/contracts.hpp"
#include "util/cvec.hpp"
#include "util/fft.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace press::util {
namespace {

// ---------------------------------------------------------------- units

TEST(Units, DbRoundtrip) {
    EXPECT_NEAR(db_to_linear(linear_to_db(42.0)), 42.0, 1e-12);
    EXPECT_NEAR(linear_to_db(db_to_linear(-13.0)), -13.0, 1e-12);
    EXPECT_DOUBLE_EQ(linear_to_db(10.0), 10.0);
    EXPECT_DOUBLE_EQ(linear_to_db(1.0), 0.0);
}

TEST(Units, AmplitudeDb) {
    EXPECT_NEAR(amplitude_to_db(10.0), 20.0, 1e-12);
    EXPECT_NEAR(db_to_amplitude(-20.0), 0.1, 1e-12);
}

TEST(Units, DbmWatt) {
    EXPECT_NEAR(dbm_to_watt(0.0), 1e-3, 1e-15);
    EXPECT_NEAR(dbm_to_watt(30.0), 1.0, 1e-12);
    EXPECT_NEAR(watt_to_dbm(dbm_to_watt(17.0)), 17.0, 1e-12);
}

TEST(Units, Wavelength) {
    // 2.462 GHz Wi-Fi channel 11 -> ~12.18 cm.
    EXPECT_NEAR(wavelength(2.462e9), 0.12177, 1e-4);
}

TEST(Units, ThermalNoiseFloor) {
    // kT at 290 K is -174 dBm/Hz; in 1 Hz with 0 dB NF.
    EXPECT_NEAR(watt_to_dbm(thermal_noise_watt(1.0, 0.0)), -174.0, 0.2);
    // Noise figure adds straight dB.
    EXPECT_NEAR(watt_to_dbm(thermal_noise_watt(1.0, 7.0)), -167.0, 0.2);
}

TEST(Units, WrapAngle) {
    EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-12);
    EXPECT_NEAR(wrap_angle(3.0 * kPi), kPi, 1e-12);
    EXPECT_NEAR(wrap_angle(-3.0 * kPi), kPi, 1e-12);
    EXPECT_NEAR(wrap_angle(kTwoPi * 7 + 0.25), 0.25, 1e-9);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicFromSeed) {
    Rng a(12345);
    Rng b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i)
        if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformBounds) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-2.0, 3.0);
        EXPECT_GE(x, -2.0);
        EXPECT_LT(x, 3.0);
    }
}

TEST(Rng, UniformIntInclusive) {
    Rng rng(8);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniform_int(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= (v == 0);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
    Rng rng(9);
    std::vector<double> xs(20000);
    for (double& x : xs) x = rng.gaussian(1.5, 2.0);
    EXPECT_NEAR(mean(xs), 1.5, 0.1);
    EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, ZeroStddevGaussianIsTheMeanInStep) {
    // stddev == 0 is legal: the draw is exactly the mean, and the engine
    // advances as far as a standard normal draw would take it.
    Rng rng(14);
    Rng twin(14);
    EXPECT_EQ(rng.gaussian(-3.25, 0.0), -3.25);
    (void)twin.gaussian(0.0, 1.0);
    EXPECT_EQ(rng.uniform_int(0, 1ll << 62), twin.uniform_int(0, 1ll << 62));
}

TEST(Rng, ComplexGaussianVariance) {
    Rng rng(10);
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) acc += std::norm(rng.complex_gaussian(3.0));
    EXPECT_NEAR(acc / n, 3.0, 0.15);
}

TEST(Rng, UnitPhasorOnCircle) {
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
        EXPECT_NEAR(std::abs(rng.unit_phasor()), 1.0, 1e-12);
}

TEST(Rng, ChanceExtremes) {
    Rng rng(12);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ForkDecorrelates) {
    Rng parent(13);
    Rng child = parent.fork();
    // The child stream should not reproduce the parent's next values.
    int same = 0;
    for (int i = 0; i < 50; ++i)
        if (parent.uniform(0.0, 1.0) == child.uniform(0.0, 1.0)) ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, ContractViolations) {
    Rng rng(14);
    EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
    EXPECT_THROW(rng.chance(1.5), ContractViolation);
    EXPECT_THROW(rng.gaussian(0.0, -1.0), ContractViolation);
}

// ----------------------------------------------------------------- cvec

TEST(CVec, ElementwiseOps) {
    const CVec a = {{1, 2}, {3, 4}};
    const CVec b = {{5, 6}, {7, 8}};
    const CVec sum = add(a, b);
    EXPECT_EQ(sum[0], (cd{6, 8}));
    EXPECT_EQ(sum[1], (cd{10, 12}));
    const CVec diff = subtract(b, a);
    EXPECT_EQ(diff[0], (cd{4, 4}));
    const CVec prod = hadamard(a, b);
    EXPECT_EQ(prod[0], (cd{1, 2}) * (cd{5, 6}));
    const CVec quot = divide(prod, b);
    EXPECT_NEAR(std::abs(quot[0] - a[0]), 0.0, 1e-12);
}

TEST(CVec, MismatchedLengthsThrow) {
    const CVec a = {{1, 0}};
    const CVec b = {{1, 0}, {2, 0}};
    EXPECT_THROW(add(a, b), ContractViolation);
    EXPECT_THROW(inner(a, b), ContractViolation);
}

TEST(CVec, DivideByZeroThrows) {
    const CVec a = {{1, 0}};
    const CVec z = {{0, 0}};
    EXPECT_THROW(divide(a, z), ContractViolation);
}

TEST(CVec, InnerConjugateSymmetry) {
    const CVec a = {{1, 2}, {3, -1}};
    const CVec b = {{0, 1}, {2, 2}};
    EXPECT_NEAR(std::abs(inner(a, b) - std::conj(inner(b, a))), 0.0, 1e-12);
}

TEST(CVec, EnergyAndPower) {
    const CVec a = {{3, 4}, {0, 0}};
    EXPECT_DOUBLE_EQ(energy(a), 25.0);
    EXPECT_DOUBLE_EQ(mean_power(a), 12.5);
    EXPECT_DOUBLE_EQ(mean_power(CVec{}), 0.0);
}

TEST(CVec, ConvolveKnown) {
    const CVec a = {{1, 0}, {2, 0}};
    const CVec b = {{1, 0}, {0, 0}, {3, 0}};
    const CVec c = convolve(a, b);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_NEAR(c[0].real(), 1.0, 1e-12);
    EXPECT_NEAR(c[1].real(), 2.0, 1e-12);
    EXPECT_NEAR(c[2].real(), 3.0, 1e-12);
    EXPECT_NEAR(c[3].real(), 6.0, 1e-12);
}

// ------------------------------------------------------------------ fft

class FftRoundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundtrip, IfftInvertsFft) {
    Rng rng(GetParam());
    CVec x(GetParam());
    for (cd& v : x) v = rng.complex_gaussian(1.0);
    const CVec y = ifft(fft(x));
    EXPECT_LT(max_abs_diff(x, y), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundtrip,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 12, 17, 64,
                                           100, 128, 256, 1000));

TEST(Fft, ImpulseIsFlat) {
    CVec x(64, cd{0, 0});
    x[0] = {1, 0};
    const CVec y = fft(x);
    for (const cd& v : y) EXPECT_NEAR(std::abs(v - cd{1, 0}), 0.0, 1e-12);
}

TEST(Fft, ConstantIsImpulse) {
    CVec x(32, cd{1, 0});
    const CVec y = fft(x);
    EXPECT_NEAR(std::abs(y[0]), 32.0, 1e-9);
    for (std::size_t k = 1; k < y.size(); ++k)
        EXPECT_NEAR(std::abs(y[k]), 0.0, 1e-9);
}

TEST(Fft, MatchesNaiveDft) {
    // Including a non-power-of-two size to cover Bluestein.
    for (std::size_t n : {7u, 16u, 20u}) {
        Rng rng(n);
        CVec x(n);
        for (cd& v : x) v = rng.complex_gaussian(1.0);
        const CVec y = fft(x);
        for (std::size_t k = 0; k < n; ++k) {
            cd ref{0, 0};
            for (std::size_t i = 0; i < n; ++i)
                ref += x[i] * std::polar(1.0, -kTwoPi *
                                                  static_cast<double>(k * i) /
                                                  static_cast<double>(n));
            EXPECT_NEAR(std::abs(y[k] - ref), 0.0, 1e-8)
                << "n=" << n << " k=" << k;
        }
    }
}

TEST(Fft, ParsevalHolds) {
    Rng rng(99);
    CVec x(128);
    for (cd& v : x) v = rng.complex_gaussian(1.0);
    const CVec y = fft(x);
    EXPECT_NEAR(energy(y), energy(x) * 128.0, 1e-6 * energy(y));
}

TEST(Fft, Linearity) {
    Rng rng(5);
    CVec a(64), b(64);
    for (cd& v : a) v = rng.complex_gaussian(1.0);
    for (cd& v : b) v = rng.complex_gaussian(1.0);
    const cd s{2.0, -1.0};
    const CVec lhs = fft(add(scale(a, s), b));
    const CVec rhs = add(scale(fft(a), s), fft(b));
    EXPECT_LT(max_abs_diff(lhs, rhs), 1e-8);
}

TEST(Fft, RotateLeft) {
    const CVec v = {{1, 0}, {2, 0}, {3, 0}};
    const CVec r = rotate_left(v, 1);
    EXPECT_NEAR(r[0].real(), 2.0, 1e-15);
    EXPECT_NEAR(r[2].real(), 1.0, 1e-15);
    EXPECT_TRUE(rotate_left(CVec{}, 3).empty());
}

TEST(Fft, PowerOfTwoDetection) {
    EXPECT_TRUE(is_power_of_two(1));
    EXPECT_TRUE(is_power_of_two(64));
    EXPECT_FALSE(is_power_of_two(0));
    EXPECT_FALSE(is_power_of_two(100));
}

// --------------------------------------------------------------- matrix

TEST(Matrix, MultiplyKnown) {
    const Matrix a = Matrix::from_rows({{{1, 0}, {2, 0}}, {{3, 0}, {4, 0}}});
    const Matrix b = Matrix::from_rows({{{0, 0}, {1, 0}}, {{1, 0}, {0, 0}}});
    const Matrix c = a.multiply(b);
    EXPECT_NEAR(c.at(0, 0).real(), 2.0, 1e-12);
    EXPECT_NEAR(c.at(0, 1).real(), 1.0, 1e-12);
    EXPECT_NEAR(c.at(1, 0).real(), 4.0, 1e-12);
    EXPECT_NEAR(c.at(1, 1).real(), 3.0, 1e-12);
}

TEST(Matrix, HermitianTranspose) {
    const Matrix a = Matrix::from_rows({{{1, 2}, {3, 4}}});
    const Matrix h = a.hermitian();
    EXPECT_EQ(h.rows(), 2u);
    EXPECT_EQ(h.cols(), 1u);
    EXPECT_EQ(h.at(0, 0), (cd{1, -2}));
    EXPECT_EQ(h.at(1, 0), (cd{3, -4}));
}

class MatrixInverse : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatrixInverse, InverseTimesSelfIsIdentity) {
    const std::size_t n = GetParam();
    Rng rng(n * 31);
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            a.at(r, c) = rng.complex_gaussian(1.0);
    const Matrix prod = a.multiply(a.inverse());
    const Matrix eye = Matrix::identity(n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            EXPECT_NEAR(std::abs(prod.at(r, c) - eye.at(r, c)), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixInverse, ::testing::Values(1, 2, 3, 5, 8));

TEST(Matrix, SingularInverseThrows) {
    Matrix a(2, 2);
    a.at(0, 0) = {1, 0};
    a.at(0, 1) = {2, 0};
    a.at(1, 0) = {2, 0};
    a.at(1, 1) = {4, 0};
    EXPECT_THROW(a.inverse(), std::domain_error);
}

TEST(Matrix, NonSquareInverseThrows) {
    EXPECT_THROW(Matrix(2, 3).inverse(), std::domain_error);
}

TEST(Matrix, SingularValuesOfDiagonal) {
    Matrix a(2, 2);
    a.at(0, 0) = {3, 0};
    a.at(1, 1) = {0, 4};  // phase must not matter
    const auto sv = a.singular_values();
    EXPECT_NEAR(sv[0], 4.0, 1e-12);
    EXPECT_NEAR(sv[1], 3.0, 1e-12);
    EXPECT_NEAR(a.condition_number(), 4.0 / 3.0, 1e-12);
}

TEST(Matrix, ConditionNumberOfIdentityIsOne) {
    EXPECT_NEAR(Matrix::identity(4).condition_number(), 1.0, 1e-10);
    EXPECT_NEAR(Matrix::identity(2).condition_number_db(), 0.0, 1e-9);
}

class MatrixSvdProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatrixSvdProperty, FrobeniusMatchesSingularValues) {
    const std::size_t n = GetParam();
    Rng rng(n * 17 + 3);
    Matrix a(n, n + 1);  // also exercise non-square
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            a.at(r, c) = rng.complex_gaussian(1.0);
    const auto sv = a.singular_values();
    double sum_sq = 0.0;
    for (double s : sv) sum_sq += s * s;
    const double fro = a.frobenius_norm();
    EXPECT_NEAR(sum_sq, fro * fro, 1e-8 * fro * fro);
    // Descending and nonnegative.
    for (std::size_t i = 0; i + 1 < sv.size(); ++i)
        EXPECT_GE(sv[i], sv[i + 1] - 1e-12);
    EXPECT_GE(sv.back(), 0.0);
    EXPECT_GE(a.condition_number(), 1.0 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixSvdProperty,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(Matrix, SingularValuesPhaseInvariant) {
    Rng rng(77);
    Matrix a(3, 3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a.at(r, c) = rng.complex_gaussian(1.0);
    Matrix b = a;
    const cd phase = std::polar(1.0, 1.234);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) b.at(r, c) *= phase;
    const auto sa = a.singular_values();
    const auto sb = b.singular_values();
    for (std::size_t i = 0; i < sa.size(); ++i)
        EXPECT_NEAR(sa[i], sb[i], 1e-9);
}

TEST(Matrix, RankDeficientConditionThrows) {
    Matrix a(2, 2);
    a.at(0, 0) = {1, 0};
    a.at(0, 1) = {1, 0};
    a.at(1, 0) = {1, 0};
    a.at(1, 1) = {1, 0};
    EXPECT_THROW(a.condition_number(), std::domain_error);
}

TEST(Matrix, FromRowsValidation) {
    EXPECT_THROW(Matrix::from_rows({}), ContractViolation);
    EXPECT_THROW(Matrix::from_rows({{{1, 0}}, {{1, 0}, {2, 0}}}),
                 ContractViolation);
}

TEST(Matrix, AtOutOfRangeThrows) {
    Matrix a(2, 2);
    EXPECT_THROW(a.at(2, 0), ContractViolation);
    EXPECT_THROW(a.at(0, 2), ContractViolation);
}

// ---------------------------------------------------------------- stats

TEST(Stats, BasicMoments) {
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_NEAR(variance(v), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(median(v), 2.5);
    EXPECT_DOUBLE_EQ(min_value(v), 1.0);
    EXPECT_DOUBLE_EQ(max_value(v), 4.0);
}

TEST(Stats, Percentiles) {
    const std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
    EXPECT_NEAR(percentile(v, 25.0), 20.0, 1e-12);
}

TEST(Stats, EmptySampleThrows) {
    EXPECT_THROW(mean({}), ContractViolation);
    EXPECT_THROW(variance({1.0}), ContractViolation);
    EXPECT_THROW(percentile({}, 50.0), ContractViolation);
    EXPECT_THROW(percentile({1.0}, 120.0), ContractViolation);
}

TEST(Stats, EmpiricalDistributionCdf) {
    EmpiricalDistribution d({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
    EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.5);
    EXPECT_DOUBLE_EQ(d.cdf(10.0), 1.0);
    EXPECT_DOUBLE_EQ(d.ccdf(2.0), 0.5);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 4.0);
    EXPECT_NEAR(d.quantile(0.5), 2.5, 1e-12);
}

TEST(Stats, CdfGridMonotone) {
    Rng rng(3);
    std::vector<double> xs(500);
    for (double& x : xs) x = rng.gaussian(0.0, 1.0);
    EmpiricalDistribution d(xs);
    const auto grid = d.cdf_grid(40);
    for (std::size_t i = 1; i < grid.size(); ++i) {
        EXPECT_LE(grid[i - 1].second, grid[i].second + 1e-12);
        EXPECT_LE(grid[i - 1].first, grid[i].first);
    }
    EXPECT_NEAR(grid.back().second, 1.0, 1e-12);
}

TEST(Stats, IntegerHistogram) {
    const auto bins = integer_histogram({0.0, 1.2, 0.9, 5.0, 9.0}, 5);
    EXPECT_EQ(bins[0], 1u);
    EXPECT_EQ(bins[1], 2u);  // 1.2 and 0.9 both round to 1
    EXPECT_EQ(bins[5], 1u);  // 9.0 is out of range and dropped
}

TEST(Stats, Fractions) {
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(fraction_above(v, 2.5), 0.5);
    EXPECT_DOUBLE_EQ(fraction_below(v, 2.5), 0.5);
    EXPECT_DOUBLE_EQ(fraction_above(v, 4.0), 0.0);
}

}  // namespace
}  // namespace press::util
