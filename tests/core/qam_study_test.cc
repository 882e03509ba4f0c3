/**
 * @file
 * QAM feasibility study tests (Fig. 7), including the paper's
 * headline averages.
 */

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "core/qam_study.hh"
#include "core/soc_catalog.hh"

namespace mindful::core {
namespace {

QamStudy
makeStudy(int soc_id)
{
    return QamStudy(ImplantModel(socById(soc_id)));
}

TEST(QamStudyTest, SymbolRateFrozenAtReferenceRate)
{
    QamStudy study = makeStudy(1);
    EXPECT_NEAR(study.transceiver().symbolRate().inHertz(),
                ImplantModel(socById(1))
                    .referenceDataRate()
                    .inBitsPerSecond(),
                1e-3);
}

TEST(QamStudyTest, BitsPerSymbolStaircasePer1024Channels)
{
    // Sec. 5.2: each 1024-channel interval adds one bit per symbol.
    QamStudy study = makeStudy(1);
    EXPECT_EQ(study.evaluate(1024).bitsPerSymbol, 1u);
    EXPECT_EQ(study.evaluate(1025).bitsPerSymbol, 2u);
    EXPECT_EQ(study.evaluate(2048).bitsPerSymbol, 2u);
    EXPECT_EQ(study.evaluate(2049).bitsPerSymbol, 3u);
    EXPECT_EQ(study.evaluate(5120).bitsPerSymbol, 5u);
}

TEST(QamStudyTest, EfficiencyJumpsAtSymbolBoundaries)
{
    // Fig. 7: "sharp increases indicate the addition of 1 bit per
    // symbol."
    QamStudy study = makeStudy(1);
    double before = study.evaluate(2048).minimumEfficiency;
    double after = study.evaluate(2112).minimumEfficiency;
    double within = study.evaluate(1984).minimumEfficiency;
    EXPECT_GT(after - before, 2.0 * (before - within));
}

TEST(QamStudyTest, EfficiencyGrowsWithinAnInterval)
{
    QamStudy study = makeStudy(1);
    double previous = 0.0;
    for (std::uint64_t n = 1088; n <= 2048; n += 192) {
        double eta = study.evaluate(n).minimumEfficiency;
        EXPECT_GT(eta, previous);
        previous = eta;
    }
}

TEST(QamStudyTest, IdealPowerMatchesTransceiver)
{
    QamStudy study = makeStudy(1);
    auto point = study.evaluate(3000);
    EXPECT_NEAR(point.idealTxPower.inWatts(),
                study.transceiver()
                    .transmitPower(point.dataRate, 1.0)
                    .inWatts(),
                1e-15);
    EXPECT_NEAR(point.minimumEfficiency,
                point.idealTxPower / point.commAllowance, 1e-12);
}

TEST(QamStudyTest, MaxChannelsConsistentWithEvaluate)
{
    QamStudy study = makeStudy(1);
    for (double eta : {0.15, 0.5}) {
        std::uint64_t max_n = study.maxChannels(eta);
        ASSERT_GT(max_n, 0u);
        EXPECT_TRUE(study.evaluate(max_n).feasibleAt(eta));
    }
}

TEST(QamStudyTest, HigherEfficiencyNeverSupportsFewerChannels)
{
    QamStudy study = makeStudy(2);
    std::uint64_t previous = 0;
    for (double eta : {0.1, 0.2, 0.5, 1.0}) {
        std::uint64_t max_n = study.maxChannels(eta);
        EXPECT_GE(max_n, previous);
        previous = max_n;
    }
}

TEST(QamStudyTest, PaperHeadline20PercentDoubles)
{
    // "At 20% QAM efficiency ... SoCs could double current channel
    // counts on average."
    auto summary = experiments::qamSummary(0.20);
    EXPECT_GT(summary.averageGain, 1.5);
    EXPECT_LT(summary.averageGain, 2.5);
    // EXPERIMENTS.md Fig. 7: 1968 channels (1.92x) against ~2200.
    EXPECT_EQ(summary.averageMaxChannels, 1968.0);
}

TEST(QamStudyTest, PaperHeadline100PercentQuadruples)
{
    // "At the theoretical ideal of 100% efficiency, this increases
    // to 4x."
    auto summary = experiments::qamSummary(1.0);
    EXPECT_GT(summary.averageGain, 3.2);
    EXPECT_LT(summary.averageGain, 4.8);
    // EXPERIMENTS.md Fig. 7: 3944 channels (3.85x) against ~4000.
    EXPECT_EQ(summary.averageMaxChannels, 3944.0);
}

TEST(QamStudyTest, PaperHeadline13PercentIsKnownDeviation)
{
    // The paper reaches n ~ 1800 at 13% QAM efficiency. This model
    // reaches 1408 on average there and needs ~18% for 1800: the
    // documented deviation in EXPERIMENTS.md Fig. 7 ("same regime").
    // Pinned so a fix or a drift in the link budget shows up here.
    EXPECT_EQ(experiments::qamSummary(0.13).averageMaxChannels, 1408.0);
}

TEST(QamStudyTest, EvenIdealQamCannotStreamAtLargeScale)
{
    // Sec. 5.2 conclusion: "even an ideal yet impractical QAM
    // implementation would not support full neural data
    // transmission" at large channel counts.
    for (const auto &soc : wirelessSocs()) {
        QamStudy study{ImplantModel(soc)};
        EXPECT_GT(study.evaluate(8192).minimumEfficiency, 1.0)
            << soc.name;
    }
}

TEST(QamStudyTest, CustomLinkBudgetShiftsTheCurve)
{
    QamStudyConfig harsh;
    harsh.link.marginDb = 30.0; // 10 dB extra tissue margin
    QamStudy nominal(ImplantModel(socById(1)));
    QamStudy degraded(ImplantModel(socById(1)), harsh);
    EXPECT_GT(degraded.evaluate(2048).minimumEfficiency,
              nominal.evaluate(2048).minimumEfficiency * 5.0);
}

TEST(QamStudyTest, StricterBerRaisesRequiredEfficiency)
{
    QamStudyConfig strict;
    strict.targetBer = 1e-9;
    QamStudy nominal(ImplantModel(socById(1)));
    QamStudy strict_study(ImplantModel(socById(1)), strict);
    EXPECT_GT(strict_study.evaluate(2048).minimumEfficiency,
              nominal.evaluate(2048).minimumEfficiency);
}

} // namespace
} // namespace mindful::core
