// Tests for the control plane: wire framing, message codec, timing model,
// objectives, searchers and the controller loop.
#include <gtest/gtest.h>

#include <cmath>

#include "control/controller.hpp"
#include "control/message.hpp"
#include "control/objective.hpp"
#include "control/plane.hpp"
#include "control/search.hpp"
#include "control/wire.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace press::control {
namespace {

// ----------------------------------------------------------------- wire

TEST(Wire, WriterReaderRoundtrip) {
    ByteWriter w;
    w.u8(0xAB);
    w.u16(0x1234);
    w.u32(0xDEADBEEF);
    w.i16(-1234);
    ByteReader r(w.buffer());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.i16(), -1234);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, LittleEndianLayout) {
    ByteWriter w;
    w.u16(0x1234);
    EXPECT_EQ(w.buffer()[0], 0x34);
    EXPECT_EQ(w.buffer()[1], 0x12);
}

TEST(Wire, ReadPastEndThrows) {
    ByteWriter w;
    w.u8(1);
    ByteReader r(w.buffer());
    r.u8();
    EXPECT_THROW(r.u8(), ProtocolError);
    ByteReader r2(w.buffer());
    EXPECT_THROW(r2.u32(), ProtocolError);
}

TEST(Wire, Crc16KnownVector) {
    // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    const std::vector<std::uint8_t> data = {'1', '2', '3', '4', '5',
                                            '6', '7', '8', '9'};
    EXPECT_EQ(crc16(data), 0x29B1);
}

TEST(Wire, CrcDetectsCorruption) {
    std::vector<std::uint8_t> data = {'1', '2', '3'};
    const std::uint16_t before = crc16(data);
    data[1] ^= 0x01;
    EXPECT_NE(crc16(data), before);
}

// -------------------------------------------------------------- message

TEST(Message, SetConfigRoundtrip) {
    SetConfig msg;
    msg.array_id = 7;
    msg.config = {0, 1, 2, 3};
    const auto bytes = encode(Message{msg}, 99);
    const Decoded d = decode(bytes);
    EXPECT_EQ(d.seq, 99u);
    const auto& back = std::get<SetConfig>(d.message);
    EXPECT_EQ(back.array_id, 7);
    EXPECT_EQ(back.config, msg.config);
}

TEST(Message, AckAndRequestRoundtrip) {
    SetConfigAck ack;
    ack.array_id = 3;
    ack.status = 1;
    const auto a = decode(encode(Message{ack}, 5));
    EXPECT_EQ(std::get<SetConfigAck>(a.message).status, 1);

    MeasureRequest req;
    req.link_id = 2;
    req.repeats = 10;
    const auto r = decode(encode(Message{req}, 6));
    EXPECT_EQ(std::get<MeasureRequest>(r.message).repeats, 10);
}

TEST(Message, ReportQuantization) {
    MeasureReport rep;
    rep.link_id = 1;
    rep.set_snr_db({12.344, -3.108, 59.999});
    const auto d = decode(encode(Message{rep}, 7));
    const auto snr = std::get<MeasureReport>(d.message).snr_db();
    ASSERT_EQ(snr.size(), 3u);
    EXPECT_NEAR(snr[0], 12.344, 0.005);  // centi-dB resolution
    EXPECT_NEAR(snr[1], -3.108, 0.005);
    EXPECT_NEAR(snr[2], 59.999, 0.005);
}

TEST(Message, ReportClampsExtremes) {
    MeasureReport rep;
    rep.set_snr_db({1e6, -1e6});
    EXPECT_EQ(rep.snr_centi_db[0], 32767);
    EXPECT_EQ(rep.snr_centi_db[1], -32768);
}

TEST(Message, CorruptedCrcThrows) {
    SetConfig msg;
    msg.config = {1, 2};
    auto bytes = encode(Message{msg}, 1);
    bytes[bytes.size() / 2] ^= 0xFF;
    EXPECT_THROW(decode(bytes), ProtocolError);
}

TEST(Message, TruncationThrows) {
    SetConfig msg;
    msg.config = {1, 2};
    auto bytes = encode(Message{msg}, 1);
    bytes.resize(bytes.size() - 3);
    EXPECT_THROW(decode(bytes), ProtocolError);
    EXPECT_THROW(decode(std::vector<std::uint8_t>{1, 2, 3}), ProtocolError);
}

TEST(Message, BadMagicVersionTypeThrow) {
    SetConfig msg;
    msg.config = {1};
    // Each mutation invalidates the CRC too, so re-frame manually: corrupt
    // the field, then rewrite the trailing CRC to match.
    auto corrupt_and_fix = [](std::vector<std::uint8_t> bytes,
                              std::size_t index, std::uint8_t value) {
        bytes[index] = value;
        const std::uint16_t crc = crc16(bytes.data(), bytes.size() - 2);
        bytes[bytes.size() - 2] = static_cast<std::uint8_t>(crc & 0xFF);
        bytes[bytes.size() - 1] = static_cast<std::uint8_t>(crc >> 8);
        return bytes;
    };
    const auto good = encode(Message{msg}, 1);
    EXPECT_THROW(decode(corrupt_and_fix(good, 0, 0x00)), ProtocolError);
    EXPECT_THROW(decode(corrupt_and_fix(good, 2, 0x09)), ProtocolError);
    EXPECT_THROW(decode(corrupt_and_fix(good, 3, 0x77)), ProtocolError);
}

TEST(Message, EncodedSizeMatches) {
    MeasureReport rep;
    rep.set_snr_db(std::vector<double>(52, 10.0));
    EXPECT_EQ(encoded_size(Message{rep}),
              encode(Message{rep}, 0).size());
    // Header(10) + link(2) + count(2) + 52 * 2 + crc(2).
    EXPECT_EQ(encoded_size(Message{rep}), 10u + 4u + 104u + 2u);
}

TEST(Message, TracedFrameRoundTripCarriesContext) {
    SetConfig msg;
    msg.array_id = 2;
    msg.config = {1, 2};
    const obs::TraceContext ctx{0xABCDEF12u, 42u};
    const auto traced = encode(Message{msg}, 9, ctx);
    // Version 2: trace_id + parent_span (u64 each) after the sequence.
    EXPECT_EQ(traced.size(), encoded_size(Message{msg}) + 16u);
    const Decoded d = decode(traced);
    EXPECT_EQ(d.seq, 9u);
    EXPECT_EQ(d.trace.trace_id, ctx.trace_id);
    EXPECT_EQ(d.trace.parent_span, ctx.parent_span);

    // Without a valid context the three-argument overload emits a plain
    // version-1 frame, byte-identical to the two-argument encoder.
    const auto plain = encode(Message{msg}, 9, obs::TraceContext{});
    EXPECT_EQ(plain, encode(Message{msg}, 9));
    EXPECT_FALSE(decode(plain).trace.valid());
}

// ---------------------------------------------------------------- plane

TEST(Plane, TransferTime) {
    ControlPlaneModel m;
    m.bitrate_bps = 1000.0;
    m.latency_s = 0.5;
    EXPECT_NEAR(m.transfer_time_s(125), 0.5 + 1.0, 1e-12);
}

TEST(Plane, PrototypeSweepTakesSeconds) {
    // The paper: "it takes about 5 seconds to measure all of the [64]
    // combinations". Our prototype model must land in that ballpark.
    const ControlPlaneModel proto = ControlPlaneModel::prototype();
    SetConfig probe;
    probe.config = {0, 0, 0};
    const double sweep =
        64.0 * proto.config_trial_time_s(probe, 1, 52);
    EXPECT_GT(sweep, 3.0);
    EXPECT_LT(sweep, 9.0);
}

TEST(Plane, FastPlaneFitsCoherenceTime) {
    const ControlPlaneModel fast = ControlPlaneModel::fast();
    SetConfig probe;
    probe.config = {0, 0, 0};
    // Tens of trials inside the 80 ms quasi-static coherence window.
    const double trial = fast.config_trial_time_s(probe, 1, 52);
    EXPECT_GT(80e-3 / trial, 20.0);
}

TEST(Plane, SimClock) {
    SimClock clock;
    clock.advance(1.5);
    clock.advance(0.25);
    EXPECT_DOUBLE_EQ(clock.now_s(), 1.75);
    EXPECT_THROW(clock.advance(-1.0), util::ContractViolation);
}

// ------------------------------------------------------------ objective

Observation make_obs(std::vector<std::vector<double>> snr) {
    Observation obs;
    obs.link_snr_db = std::move(snr);
    return obs;
}

TEST(Objective, MinAndMean) {
    const Observation obs = make_obs({{10.0, 20.0, 30.0}});
    EXPECT_DOUBLE_EQ(MinSnrObjective(0).score(obs), 10.0);
    EXPECT_DOUBLE_EQ(MeanSnrObjective(0).score(obs), 20.0);
}

TEST(Objective, MissingLinkThrows) {
    const Observation obs = make_obs({{10.0}});
    EXPECT_THROW(MinSnrObjective(1).score(obs), util::ContractViolation);
}

TEST(Objective, Throughput) {
    EXPECT_DOUBLE_EQ(
        ThroughputObjective(0).score(make_obs({std::vector<double>(52, 30.0)})),
        54.0);
    EXPECT_DOUBLE_EQ(
        ThroughputObjective(0).score(make_obs({std::vector<double>(52, 1.0)})),
        0.0);
}

TEST(Objective, WeightedBands) {
    // Link 0: low band 10 dB, high band 30 dB.
    std::vector<double> snr(8, 10.0);
    for (std::size_t k = 4; k < 8; ++k) snr[k] = 30.0;
    WeightedBandObjective obj({{0, 0, 4, 1.0}, {0, 4, 8, -0.5}}, "test");
    EXPECT_DOUBLE_EQ(obj.score(make_obs({snr})), 10.0 - 15.0);
    EXPECT_EQ(obj.name(), "test");
}

TEST(Objective, HarmonizationFactory) {
    const auto obj = make_harmonization_objective(8, true);
    // Perfect harmonization: comm links strong in their own bands,
    // interference weak there.
    std::vector<double> commA(8, 0.0);
    std::vector<double> commB(8, 0.0);
    std::vector<double> intA(8, 0.0);
    std::vector<double> intB(8, 0.0);
    for (std::size_t k = 0; k < 4; ++k) commA[k] = 40.0;
    for (std::size_t k = 4; k < 8; ++k) commB[k] = 40.0;
    const double good = obj->score(make_obs({commA, commB, intA, intB}));
    // Anti-harmonized: comm links strong in the wrong half.
    const double bad = obj->score(make_obs({commB, commA, commB, commA}));
    EXPECT_GT(good, bad);
}

TEST(Objective, ConditionNumber) {
    Observation obs;
    obs.mimo_condition_db = {3.0, 5.0};
    EXPECT_DOUBLE_EQ(ConditionNumberObjective().score(obs), -4.0);
    EXPECT_THROW(ConditionNumberObjective().score(Observation{}),
                 util::ContractViolation);
}

// --------------------------------------------------------------- search

// A separable synthetic objective with a unique optimum: score is the
// number of elements matching a target configuration.
struct SyntheticProblem {
    surface::Config target;
    double operator()(const surface::Config& c) const {
        double score = 0.0;
        for (std::size_t i = 0; i < c.size(); ++i)
            if (c[i] == target[i]) score += 1.0;
        return score;
    }
};

// Parameterized suites below run once per all_searchers() entry.
const int kNumSearchers = static_cast<int>(all_searchers().size());

class SearcherFindsOptimum : public ::testing::TestWithParam<int> {};

TEST_P(SearcherFindsOptimum, OnSeparableProblem) {
    const auto searchers = all_searchers();
    const Searcher& searcher =
        *searchers[static_cast<std::size_t>(GetParam())];
    const surface::ConfigSpace space({4, 4, 4, 4});
    const SyntheticProblem problem{{2, 0, 3, 1}};
    util::Rng rng(42);
    const SearchResult result = searcher.search(
        space, [&](const surface::Config& c) { return problem(c); }, 256,
        rng);
    EXPECT_LE(result.evaluations, 256u);
    EXPECT_DOUBLE_EQ(result.best_score, 4.0)
        << "searcher " << searcher.name();
    EXPECT_EQ(result.best_config, problem.target);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SearcherFindsOptimum,
                         ::testing::Range(0, kNumSearchers));

class SearcherRespectsBudget : public ::testing::TestWithParam<int> {};

TEST_P(SearcherRespectsBudget, NeverExceeds) {
    const auto searchers = all_searchers();
    const Searcher& searcher =
        *searchers[static_cast<std::size_t>(GetParam())];
    const surface::ConfigSpace space({4, 4, 4, 4, 4, 4});
    std::size_t calls = 0;
    util::Rng rng(1);
    const SearchResult result = searcher.search(
        space,
        [&](const surface::Config&) {
            ++calls;
            return 0.0;
        },
        37, rng);
    EXPECT_LE(calls, 37u);
    EXPECT_EQ(result.evaluations, calls);
    EXPECT_EQ(result.trajectory.size(), calls);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SearcherRespectsBudget,
                         ::testing::Range(0, kNumSearchers));

class SearcherTrajectory : public ::testing::TestWithParam<int> {};

TEST_P(SearcherTrajectory, BestScoreIsMonotone) {
    const auto searchers = all_searchers();
    const Searcher& searcher =
        *searchers[static_cast<std::size_t>(GetParam())];
    const surface::ConfigSpace space({3, 3, 3});
    util::Rng rng(9);
    util::Rng noise(10);
    const SearchResult result = searcher.search(
        space,
        [&](const surface::Config&) { return noise.uniform(0.0, 1.0); }, 60,
        rng);
    for (std::size_t i = 1; i < result.trajectory.size(); ++i)
        EXPECT_GE(result.trajectory[i], result.trajectory[i - 1]);
    EXPECT_DOUBLE_EQ(result.trajectory.back(), result.best_score);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SearcherTrajectory,
                         ::testing::Range(0, kNumSearchers));

TEST(Search, ExhaustiveCoversWholeSpaceInOrder) {
    const surface::ConfigSpace space({2, 3});
    std::vector<surface::Config> seen;
    util::Rng rng(1);
    ExhaustiveSearcher().search(
        space,
        [&](const surface::Config& c) {
            seen.push_back(c);
            return 0.0;
        },
        100, rng);
    EXPECT_EQ(seen.size(), 6u);
    for (std::uint64_t i = 0; i < 6; ++i) EXPECT_EQ(seen[i], space.at(i));
}

TEST(Search, DeterministicGivenSeed) {
    const surface::ConfigSpace space({4, 4, 4});
    const SyntheticProblem problem{{1, 2, 3}};
    for (const auto& searcher : all_searchers()) {
        util::Rng rng_a(5);
        util::Rng rng_b(5);
        const auto ra = searcher->search(
            space, [&](const surface::Config& c) { return problem(c); }, 50,
            rng_a);
        const auto rb = searcher->search(
            space, [&](const surface::Config& c) { return problem(c); }, 50,
            rng_b);
        EXPECT_EQ(ra.best_config, rb.best_config) << searcher->name();
        EXPECT_EQ(ra.trajectory, rb.trajectory) << searcher->name();
    }
}

TEST(Search, SerialStopEndsAtTheFiringCandidate) {
    // A deadline that passes after the k-th evaluation ends every serial
    // search right there — also the strategies whose rounds are
    // fixed-size batches (majority vote's probes, partition's blocks),
    // and also when it has passed before the first evaluation.
    const surface::ConfigSpace space({4, 4, 4, 4, 4, 4});
    const SyntheticProblem problem{{2, 0, 3, 1, 2, 0}};
    for (const auto& searcher : all_searchers()) {
        for (const std::size_t k : {10u, 1u, 0u}) {
            std::size_t calls = 0;
            util::Rng rng(3);
            const SearchResult r = searcher->search(
                space,
                [&](const surface::Config& c) {
                    ++calls;
                    return problem(c);
                },
                100, rng, [&]() { return calls >= k; });
            EXPECT_EQ(calls, k) << searcher->name();
            EXPECT_EQ(r.evaluations, k) << searcher->name();
            EXPECT_EQ(r.trajectory.size(), k) << searcher->name();
        }
    }
}

// ------------------------------------------------------------ controller

TEST(Controller, OptimizeAppliesBestConfig) {
    const surface::ConfigSpace space({4, 4});
    surface::Config applied;
    const SyntheticProblem problem{{3, 1}};
    Controller controller(
        ControlPlaneModel::fast(),
        [&](const surface::Config& c) {
            applied = c;
            return true;
        },
        [&]() {
            Observation obs;
            obs.link_snr_db = {{problem(applied)}};
            return obs;
        },
        1, 52);
    util::Rng rng(3);
    const MinSnrObjective objective(0);
    const ExhaustiveSearcher searcher;
    const OptimizationOutcome outcome =
        controller.optimize(space, objective, searcher, 1.0, rng);
    EXPECT_EQ(outcome.search.best_config, (surface::Config{3, 1}));
    EXPECT_EQ(applied, (surface::Config{3, 1}));  // left applied
    EXPECT_DOUBLE_EQ(outcome.search.best_score, 2.0);
    EXPECT_GT(outcome.elapsed_s, 0.0);
    EXPECT_NEAR(outcome.elapsed_s,
                outcome.trial_cost_s * outcome.search.evaluations, 1e-12);
}

TEST(Controller, BudgetLimitsTrials) {
    const surface::ConfigSpace space({4, 4, 4});
    Controller controller(
        ControlPlaneModel::prototype(),
        [](const surface::Config&) { return true; },
        []() {
            Observation obs;
            obs.link_snr_db = {{1.0}};
            return obs;
        },
        1, 52);
    // The prototype pace affords only a handful of trials in 500 ms.
    const std::size_t trials = controller.trials_within(space, 0.5);
    EXPECT_GE(trials, 1u);
    EXPECT_LT(trials, 10u);
    util::Rng rng(4);
    const MinSnrObjective objective(0);
    const OptimizationOutcome outcome = controller.optimize(
        space, objective, ExhaustiveSearcher(), 0.5, rng);
    EXPECT_LE(outcome.search.evaluations, trials);
    EXPECT_TRUE(outcome.budget_limited);
}

TEST(Controller, RequiresCallbacks) {
    EXPECT_THROW(Controller(ControlPlaneModel::fast(), nullptr,
                            []() { return Observation{}; }, 1, 52),
                 util::ContractViolation);
}

}  // namespace
}  // namespace press::control
