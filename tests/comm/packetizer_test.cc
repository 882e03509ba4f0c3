/**
 * @file
 * Frame packetizer tests, including parameterized round-trip sweeps
 * and corruption detection.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "comm/packetizer.hh"

namespace mindful::comm {
namespace {

TEST(Crc16Test, KnownVector)
{
    // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
    const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8',
                                 '9'};
    EXPECT_EQ(crc16(data, 9), 0x29B1);
}

TEST(Crc16Test, EmptyInputIsInitValue)
{
    EXPECT_EQ(crc16(nullptr, 0), 0xFFFF);
}

TEST(PacketizerTest, RoundTripSimpleFrame)
{
    Packetizer packetizer({10});
    std::vector<std::uint32_t> samples{0, 511, 1023, 512, 1};
    auto frame = packetizer.pack(42, samples);
    auto unpacked = packetizer.unpack(frame);
    EXPECT_TRUE(unpacked.valid);
    EXPECT_EQ(unpacked.sequence, 42u);
    EXPECT_EQ(unpacked.samples, samples);
}

TEST(PacketizerTest, EmptyPayload)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(7, {});
    auto unpacked = packetizer.unpack(frame);
    EXPECT_TRUE(unpacked.valid);
    EXPECT_TRUE(unpacked.samples.empty());
}

TEST(PacketizerTest, FrameBitsAccounting)
{
    Packetizer packetizer({10});
    // 1024 samples x 10 b = 10240 payload bits = 1280 bytes,
    // + 6 header + 2 CRC bytes = 1288 bytes.
    EXPECT_EQ(packetizer.frameBits(1024), 1288u * 8u);
    auto frame = packetizer.pack(0, std::vector<std::uint32_t>(1024, 5));
    EXPECT_EQ(frame.size() * 8, packetizer.frameBits(1024));
}

TEST(PacketizerTest, OverheadShrinksWithPayload)
{
    Packetizer packetizer({10});
    EXPECT_GT(packetizer.overheadFraction(4),
              packetizer.overheadFraction(1024));
    EXPECT_LT(packetizer.overheadFraction(1024), 0.01);
}

TEST(PacketizerTest, CorruptionIsDetected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {100, 200, 300});
    // Flip one payload bit.
    frame[Packetizer::headerBytes] ^= 0x10;
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, HeaderCorruptionIsDetected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {100, 200, 300});
    frame[1] ^= 0x01; // sequence byte
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, BadSyncRejected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {5});
    frame[0] = 0x00;
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, TruncatedFrameRejected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {5, 6, 7});
    frame.resize(frame.size() - 3);
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

/** Re-seal a tampered frame so only the count check can reject it. */
void
resealCrc(std::vector<std::uint8_t> &frame)
{
    std::uint16_t checksum =
        crc16(frame.data(), frame.size() - Packetizer::crcBytes);
    frame[frame.size() - 2] = static_cast<std::uint8_t>(checksum >> 8);
    frame[frame.size() - 1] = static_cast<std::uint8_t>(checksum & 0xFF);
}

TEST(PacketizerTest, ForgedSampleCountRejectedWithoutAllocation)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(1, {100, 200, 300});
    // Forge the header's sample count to the 16-bit maximum and
    // re-seal the CRC, imitating a hostile or bit-rotted peer whose
    // frame still checksums. The declared count exceeds what the
    // payload region can hold, so unpack must reject it up front —
    // before reserving sample storage from attacker-controlled input.
    frame[4] = 0xFF;
    frame[5] = 0xFF;
    resealCrc(frame);
    auto unpacked = packetizer.unpack(frame);
    EXPECT_FALSE(unpacked.valid);
    EXPECT_TRUE(unpacked.samples.empty());
    EXPECT_LT(unpacked.samples.capacity(), std::size_t{1024})
        << "reserve() ran on the forged count";
}

TEST(PacketizerTest, OverdeclaredCountByOneRejected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(9, {7, 8, 9, 10});
    // 4 samples x 10 b = 40 payload bits = 5 payload bytes, which
    // could also hold 40 / 10 = 4 samples exactly; declaring 5
    // (needing 50 bits) must fail validation.
    frame[5] = 5;
    resealCrc(frame);
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, PaddedPayloadRejected)
{
    Packetizer packetizer({10});
    auto frame = packetizer.pack(3, {7, 8, 9, 10});
    // One extra payload byte ahead of the CRC, re-sealed: the declared
    // count still fits, but pack() never emits this length, so the
    // frame is not canonical and must not decode as valid.
    frame.insert(frame.end() - Packetizer::crcBytes, std::uint8_t{0});
    resealCrc(frame);
    EXPECT_FALSE(packetizer.unpack(frame).valid);
}

TEST(PacketizerTest, DeclaredCountAtPayloadCapacityStillUnpacks)
{
    Packetizer packetizer({8});
    // 8-bit samples fill payload bytes exactly: declared count ==
    // payload capacity is the boundary case and must stay valid.
    std::vector<std::uint32_t> samples(64, 0xAB);
    auto frame = packetizer.pack(2, samples);
    auto unpacked = packetizer.unpack(frame);
    EXPECT_TRUE(unpacked.valid);
    EXPECT_EQ(unpacked.samples, samples);
}

TEST(PacketizerTest, MismatchedBitwidthRejected)
{
    Packetizer tx({10});
    Packetizer rx({12});
    auto frame = tx.pack(1, {5});
    EXPECT_FALSE(rx.unpack(frame).valid);
}

TEST(PacketizerDeathTest, OverRangeSamplePanics)
{
    Packetizer packetizer({10});
    EXPECT_DEATH(packetizer.pack(0, {1024}), "exceeds");
}

/** Property sweep: random payload round trip for many widths/sizes. */
class PacketizerRoundTrip
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>>
{
};

TEST_P(PacketizerRoundTrip, RandomPayloadsSurvive)
{
    auto [bits, count] = GetParam();
    Packetizer packetizer({bits});
    Rng rng(bits * 1000 + count);
    std::vector<std::uint32_t> samples(count);
    const std::uint32_t cap = (1u << bits) - 1;
    for (auto &s : samples)
        s = static_cast<std::uint32_t>(rng.uniformInt(0, cap));

    auto frame =
        packetizer.pack(static_cast<std::uint16_t>(count), samples);
    auto unpacked = packetizer.unpack(frame);
    ASSERT_TRUE(unpacked.valid)
        << "bits=" << bits << " count=" << count;
    EXPECT_EQ(unpacked.samples, samples);
    EXPECT_EQ(unpacked.sequence, static_cast<std::uint16_t>(count));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndSizes, PacketizerRoundTrip,
    ::testing::Combine(::testing::Values(1u, 7u, 8u, 10u, 12u, 16u),
                       ::testing::Values(std::size_t{1}, std::size_t{3},
                                         std::size_t{64},
                                         std::size_t{1024})));

} // namespace
} // namespace mindful::comm
