#include "util/rng.hpp"

#include "util/contracts.hpp"
#include "util/units.hpp"

namespace press::util {

double Rng::uniform(double lo, double hi) {
    PRESS_EXPECTS(lo <= hi, "uniform bounds must be ordered");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
    PRESS_EXPECTS(lo <= hi, "uniform_int bounds must be ordered");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::gaussian(double mean, double stddev) {
    PRESS_EXPECTS(stddev >= 0.0, "stddev must be non-negative");
    // Scale a standard deviate rather than construct the distribution with
    // `stddev`: std::normal_distribution requires stddev > 0. libstdc++
    // computes the same z * stddev + mean, so every stream with
    // stddev > 0 is unchanged, and stddev == 0 consumes the same draws.
    return std::normal_distribution<double>(0.0, 1.0)(engine_) * stddev +
           mean;
}

std::complex<double> Rng::complex_gaussian(double variance) {
    PRESS_EXPECTS(variance >= 0.0, "variance must be non-negative");
    const double s = std::sqrt(variance / 2.0);
    return {gaussian(0.0, s), gaussian(0.0, s)};
}

std::complex<double> Rng::unit_phasor() {
    const double phi = uniform(0.0, kTwoPi);
    return {std::cos(phi), std::sin(phi)};
}

bool Rng::chance(double p) {
    PRESS_EXPECTS(p >= 0.0 && p <= 1.0, "probability must be in [0,1]");
    return std::bernoulli_distribution(p)(engine_);
}

Rng Rng::fork() {
    // Mix two draws into a new seed; splitmix-style finalizer decorrelates
    // the child stream from the parent's subsequent output.
    std::uint64_t z = engine_() + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
}

}  // namespace press::util
