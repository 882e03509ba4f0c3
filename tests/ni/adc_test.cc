/**
 * @file
 * ADC quantizer tests: a parameterized bitwidth sweep, NaN and infinity
 * inputs, and bit-exactness against the floor() formula at every code
 * edge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "ni/adc.hh"

namespace mindful::ni {
namespace {

AdcModel
makeAdc(unsigned bits)
{
    return AdcModel(bits, 1000.0, Frequency::kilohertz(8.0));
}

TEST(AdcTest, CodeRangeAndLsb)
{
    AdcModel adc = makeAdc(10);
    EXPECT_EQ(adc.maxCode(), 1023u);
    EXPECT_NEAR(adc.lsbMicrovolts(), 2000.0 / 1024.0, 1e-12);
}

TEST(AdcTest, MidScaleMapsToMidCode)
{
    AdcModel adc = makeAdc(10);
    EXPECT_EQ(adc.quantize(0.0), 512u);
}

TEST(AdcTest, SaturatesAtRails)
{
    AdcModel adc = makeAdc(10);
    EXPECT_EQ(adc.quantize(5000.0), 1023u);
    EXPECT_EQ(adc.quantize(-5000.0), 0u);
    EXPECT_EQ(adc.quantize(1000.0), 1023u);
    EXPECT_EQ(adc.quantize(-1000.0), 0u);
}

TEST(AdcTest, MonotoneCodes)
{
    AdcModel adc = makeAdc(8);
    std::uint32_t prev = 0;
    for (double v = -1000.0; v <= 1000.0; v += 7.3) {
        std::uint32_t code = adc.quantize(v);
        EXPECT_GE(code, prev);
        prev = code;
    }
}

TEST(AdcTest, PerChannelRateIsBitsTimesSampling)
{
    AdcModel adc = makeAdc(10);
    EXPECT_NEAR(adc.perChannelRate().inBitsPerSecond(), 80000.0, 1e-9);
}

TEST(AdcTest, BufferQuantization)
{
    AdcModel adc = makeAdc(10);
    auto codes = adc.quantize(std::vector<double>{0.0, 500.0, -500.0});
    ASSERT_EQ(codes.size(), 3u);
    EXPECT_EQ(codes[0], 512u);
    EXPECT_GT(codes[1], codes[0]);
    EXPECT_LT(codes[2], codes[0]);
}

TEST(AdcTest, NanMapsToCodeZero)
{
    AdcModel adc = makeAdc(10);
    EXPECT_EQ(adc.quantize(std::numeric_limits<double>::quiet_NaN()), 0u);
    EXPECT_EQ(adc.quantize(-std::numeric_limits<double>::quiet_NaN()), 0u);
}

TEST(AdcTest, InfinitiesSaturate)
{
    AdcModel adc = makeAdc(10);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(adc.quantize(inf), adc.maxCode());
    EXPECT_EQ(adc.quantize(-inf), 0u);
}

/** The quantizer as first written: clamp, normalize, floor, clamp. */
std::uint32_t
floorReference(const AdcModel &adc, double microvolts)
{
    const double fs = adc.fullScaleMicrovolts();
    double clamped = std::clamp(microvolts, -fs, fs);
    double normalized = (clamped + fs) / (2.0 * fs);
    auto code = static_cast<std::int64_t>(
        std::floor(normalized * static_cast<double>(1u << adc.bits())));
    return static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(code, 0, adc.maxCode()));
}

class AdcFloorEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AdcFloorEquivalence, MatchesFloorAtEveryCodeEdge)
{
    AdcModel adc = makeAdc(GetParam());
    const double fs = adc.fullScaleMicrovolts();
    const double lsb = adc.lsbMicrovolts();
    const double inf = std::numeric_limits<double>::infinity();
    std::size_t mismatches = 0;
    for (std::uint32_t k = 0; k <= adc.maxCode() + 1; ++k) {
        const double edge = -fs + static_cast<double>(k) * lsb;
        for (double v : {std::nextafter(edge, -inf), edge,
                         std::nextafter(edge, inf)}) {
            if (adc.quantize(v) != floorReference(adc, v) &&
                mismatches++ < 5)
                ADD_FAILURE() << "bits=" << adc.bits() << " v=" << v;
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, AdcFloorEquivalence,
                         ::testing::Values(1u, 10u, 16u));

/** Property sweep: round-trip error is bounded by half an LSB. */
class AdcRoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AdcRoundTrip, QuantizeDequantizeWithinHalfLsb)
{
    AdcModel adc = makeAdc(GetParam());
    double half_lsb = adc.lsbMicrovolts() / 2.0;
    for (double v = -999.0; v <= 999.0; v += 13.7) {
        double reconstructed = adc.dequantize(adc.quantize(v));
        EXPECT_NEAR(reconstructed, v, half_lsb + 1e-9)
            << "bits=" << GetParam() << " v=" << v;
    }
}

TEST_P(AdcRoundTrip, AllCodesReachable)
{
    AdcModel adc = makeAdc(GetParam());
    // The dequantized centre of every code must map back to itself.
    for (std::uint32_t code = 0; code <= adc.maxCode(); ++code)
        EXPECT_EQ(adc.quantize(adc.dequantize(code)), code);
}

INSTANTIATE_TEST_SUITE_P(Bitwidths, AdcRoundTrip,
                         ::testing::Values(4u, 6u, 8u, 10u, 12u, 16u));

TEST(AdcDeathTest, RejectsInvalidBitwidth)
{
    EXPECT_DEATH(AdcModel(0, 1000.0, Frequency::kilohertz(8.0)),
                 "bitwidth");
    EXPECT_DEATH(AdcModel(17, 1000.0, Frequency::kilohertz(8.0)),
                 "bitwidth");
}

TEST(AdcDeathTest, RejectsNonFiniteFullScale)
{
    // inf / inf would turn every sample into NaN.
    EXPECT_DEATH(AdcModel(10, std::numeric_limits<double>::infinity(),
                          Frequency::kilohertz(8.0)),
                 "full scale");
}

} // namespace
} // namespace mindful::ni
