/**
 * @file
 * Experiment-runner tests: every table/figure generator produces
 * complete, well-formed output (the bench binaries print these).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "core/experiments.hh"

namespace mindful::core::experiments {
namespace {

std::string
render(const Table &table)
{
    std::ostringstream os;
    table.print(os);
    return os.str();
}

TEST(ExperimentsTest, Table1HasElevenRows)
{
    Table table = table1();
    EXPECT_EQ(table.rows(), 11u);
    std::string out = render(table);
    for (const char *name : {"BISC", "Neuralink", "WIMAGINE", "HALO*",
                             "Neuropixels", "Jang", "Pollman"})
        EXPECT_NE(out.find(name), std::string::npos) << name;
}

TEST(ExperimentsTest, Fig4AllRowsSafe)
{
    auto rows = fig4Rows();
    ASSERT_EQ(rows.size(), 11u);
    for (const auto &row : rows) {
        EXPECT_TRUE(row.safe) << row.point.name;
        EXPECT_EQ(row.point.channels, 1024u);
    }
    EXPECT_EQ(fig4Table().rows(), 11u);
}

TEST(ExperimentsTest, Fig5SweepCoversAllWirelessSocs)
{
    auto series = commCentricSweep(CommScalingStrategy::HighMargin,
                                   fig5Channels());
    ASSERT_EQ(series.size(), 8u);
    for (const auto &entry : series) {
        EXPECT_EQ(entry.points.size(), fig5Channels().size());
        EXPECT_EQ(entry.strategy, CommScalingStrategy::HighMargin);
    }
    EXPECT_EQ(fig5Table(CommScalingStrategy::Naive).rows(), 8u);
    EXPECT_EQ(fig5Table(CommScalingStrategy::HighMargin).rows(), 8u);
}

TEST(ExperimentsTest, Fig6TableShape)
{
    Table table = fig6Table(CommScalingStrategy::HighMargin);
    EXPECT_EQ(table.rows(), 8u);
    EXPECT_EQ(table.columns(), 2u + fig6Channels().size());
}

TEST(ExperimentsTest, Fig7SweepAndTable)
{
    auto channels = fig7Channels();
    EXPECT_EQ(channels.front(), 1024u);
    EXPECT_EQ(channels.back(), 6144u);
    auto series = qamSweep(channels, {});
    ASSERT_EQ(series.size(), 8u);
    EXPECT_EQ(series[0].points.size(), channels.size());
    EXPECT_EQ(fig7Table().rows(), channels.size());
}

TEST(ExperimentsTest, Fig9TwelveDesigns)
{
    auto rows = fig9Rows();
    ASSERT_EQ(rows.size(), 12u);
    EXPECT_EQ(rows.front().design, 1);
    EXPECT_EQ(rows.back().design, 12);
    EXPECT_EQ(fig9Table().rows(), 12u);
}

TEST(ExperimentsTest, Fig10SweepBothModels)
{
    for (auto model : {SpeechModel::Mlp, SpeechModel::DnCnn}) {
        auto series = dnnPowerSweep(model, {1024, 2048});
        ASSERT_EQ(series.size(), 8u);
        for (const auto &entry : series) {
            EXPECT_EQ(entry.points.size(), 2u);
            EXPECT_EQ(entry.model, model);
        }
    }
    EXPECT_EQ(fig10Table(SpeechModel::Mlp).rows(), 8u);
}

TEST(ExperimentsTest, Fig4Soc7SpacingIsKnownDeviation)
{
    // The paper scales WIMAGINE (SoC 7) to 1024 channels at "~200 um"
    // spacing. Its stated 50x power+area cut gives a 156.8 mm^2 array,
    // i.e. sqrt(area / 1024) = 391 um at 15.2 mW/cm^2: the documented
    // deviation in EXPERIMENTS.md (Fig. 4, "recipe kept as stated").
    // Pinned so a change to the recipe or the catalog shows up here.
    const auto rows = fig4Rows();
    const auto soc7 =
        std::find_if(rows.begin(), rows.end(), [](const Fig4Row &row) {
            return row.point.socId == 7;
        });
    ASSERT_NE(soc7, rows.end());
    ASSERT_EQ(soc7->point.channels, 1024u);
    const double spacing_um =
        1000.0 * std::sqrt(soc7->point.area.inSquareMillimetres() /
                           static_cast<double>(soc7->point.channels));
    EXPECT_NEAR(spacing_um, 391.0, 1.0);
    EXPECT_NEAR(soc7->point.powerDensity().inMilliwattsPerSquareCentimetre(),
                15.2, 0.05);
    EXPECT_TRUE(soc7->safe);
}

TEST(ExperimentsTest, Fig10DnCnnFeasibleSetIsKnownDeviation)
{
    // The paper has DN-CNN feasible at 1024 channels only on SoCs
    // {1, 2}. This model also fits SoC 7 (WIMAGINE*, 50x-reduced, with
    // a BISC-sized budget): the documented deviation in EXPERIMENTS.md
    // ("DN-CNN feasible at 1024 ch only on SoCs 1-2"). Pinned so a fix
    // or a drift in the DN-CNN census shows up here.
    std::set<int> feasible;
    for (const auto &series :
         dnnPowerSweep(SpeechModel::DnCnn, fig10Channels()))
        if (series.maxChannels >= 1024)
            feasible.insert(series.socId);
    EXPECT_EQ(feasible, (std::set<int>{1, 2, 7}));
}

/**
 * Largest feasible channel count per SoC, for the SoCs that fit
 * @p model at 1024 channels (the sets EXPERIMENTS.md averages over).
 */
std::map<int, std::uint64_t>
fig10Frontiers(SpeechModel model)
{
    std::map<int, std::uint64_t> frontiers;
    for (const auto &series : dnnPowerSweep(model, fig10Channels()))
        if (series.maxChannels >= 1024)
            frontiers[series.socId] = series.maxChannels;
    return frontiers;
}

std::uint64_t
averageFrontier(const std::map<int, std::uint64_t> &frontiers)
{
    std::uint64_t sum = 0;
    for (const auto &[soc, channels] : frontiers)
        sum += channels;
    return sum / frontiers.size();
}

TEST(ExperimentsTest, Fig10MlpFrontiersMatchExperimentsTable)
{
    // EXPERIMENTS.md, Fig. 10: the MLP frontier of each SoC feasible
    // at 1024 channels, and their average (the paper reads ~1800; 2150
    // here). The census is analytic, so no change to the forward
    // kernels may move these.
    const auto frontiers = fig10Frontiers(SpeechModel::Mlp);
    const std::map<int, std::uint64_t> expected{
        {1, 2624}, {2, 2592}, {6, 1600}, {7, 2720}, {8, 1216}};
    EXPECT_EQ(frontiers, expected);
    EXPECT_EQ(averageFrontier(frontiers), 2150u);
}

TEST(ExperimentsTest, Fig10DnCnnAverageFrontierMatchesExperimentsTable)
{
    // EXPERIMENTS.md, Fig. 10: the DN-CNN frontiers average 1216
    // channels over the feasible SoCs {1, 2, 7} (paper ~1400).
    const auto frontiers = fig10Frontiers(SpeechModel::DnCnn);
    ASSERT_EQ(frontiers.size(), 3u);
    EXPECT_EQ(averageFrontier(frontiers), 1216u);
}

TEST(ExperimentsTest, Fig10DnCnnSocs4And5OverBudgetIsKnownDeviation)
{
    // The paper has SoCs 4-5 exceeding their budget ~5x with DN-CNN at
    // 1024 channels. This model reads 7.86x (Shen) and 7.36x (Muller),
    // the deviation EXPERIMENTS.md records; pinned to the CSV's two
    // decimals so a fix or a drift shows up here.
    std::map<int, double> over;
    for (const auto &series :
         dnnPowerSweep(SpeechModel::DnCnn, fig10Channels())) {
        ASSERT_EQ(series.points.front().channels, 1024u);
        over[series.socId] = series.points.front().budgetUtilization;
    }
    EXPECT_NEAR(over[4], 7.86, 0.005);
    EXPECT_NEAR(over[5], 7.36, 0.005);
}

TEST(ExperimentsTest, Fig11RowsPerSocAndModel)
{
    auto rows = partitionGains(SpeechModel::Mlp);
    ASSERT_EQ(rows.size(), 8u);
    Table table = fig11Table();
    EXPECT_EQ(table.rows(), 16u); // 8 SoCs x 2 models
}

TEST(ExperimentsTest, Fig12TablePerSoc)
{
    Table table = fig12Table(1);
    EXPECT_EQ(table.rows(), fig12Channels().size());
    EXPECT_EQ(table.columns(), 5u);
}

TEST(ExperimentsTest, Fig12Soc3MatchesExperimentsTable)
{
    // EXPERIMENTS.md, Fig. 12 (SoC 3, MLP): feasible model size as a
    // percentage of the unoptimized model at full n, to +-0.05 points.
    // "+Dense" is a known deviation: the paper averages 7% and 2% at
    // 4096 and 8192 channels, but halving the sensing area leaves
    // SoC 3 with no feasible design there; pinned as infeasible so a
    // fix or a drift shows up here.
    struct Row
    {
        std::uint64_t channels;
        double chDrPercent;
        double laChDrTechPercent;
        bool denseFeasible;
    };
    const Row rows[] = {{2048, 11.1, 51.5, true},
                        {4096, 2.2, 9.1, false},
                        {8192, 0.3, 1.2, false}};

    const auto sweep = optimizationSweep(3);
    ASSERT_EQ(sweep.size(), std::size(rows));
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto &series = sweep[i];
        const Row &row = rows[i];
        SCOPED_TRACE(series.channels);
        ASSERT_EQ(series.socId, 3);
        ASSERT_EQ(series.channels, row.channels);
        ASSERT_EQ(series.outcomes.size(), 4u);
        const auto &ch_dr = series.outcomes[0];
        const auto &tech = series.outcomes[2];
        const auto &dense = series.outcomes[3];
        ASSERT_TRUE(ch_dr.feasible);
        ASSERT_TRUE(tech.feasible);
        EXPECT_NEAR(100.0 * ch_dr.modelSizeFraction, row.chDrPercent,
                    0.05);
        EXPECT_NEAR(100.0 * tech.modelSizeFraction,
                    row.laChDrTechPercent, 0.05);
        EXPECT_EQ(dense.feasible, row.denseFeasible);
    }
}

TEST(ExperimentsTest, ModelNamesRender)
{
    EXPECT_EQ(toString(SpeechModel::Mlp), "MLP");
    EXPECT_EQ(toString(SpeechModel::DnCnn), "DN-CNN");
}

TEST(ExperimentsTest, BuilderProducesScaledModels)
{
    auto builder = speechModelBuilder(SpeechModel::Mlp);
    EXPECT_GT(builder(2048).totalMacs(), builder(1024).totalMacs());
}

TEST(ExperimentsTest, CsvRenderingWorksForAllTables)
{
    for (const Table &table :
         {table1(), fig4Table(), fig7Table(), fig9Table()}) {
        std::ostringstream os;
        table.printCsv(os);
        EXPECT_GT(os.str().size(), 100u);
    }
}

} // namespace
} // namespace mindful::core::experiments
