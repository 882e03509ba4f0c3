/**
 * @file
 * Frame packetizer tests: a pinned golden frame per sample width, the
 * CRC against its bit-serial definition, parameterized round-trip
 * sweeps and corruption detection.
 */

#include <gtest/gtest.h>

#include <string>

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

/** The bit-serial CRC the word-level one must reproduce. */
std::uint16_t
bitSerialCrc16(const std::uint8_t *data, std::size_t size)
{
    std::uint16_t crc = 0xFFFF;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= static_cast<std::uint16_t>(data[i]) << 8;
        for (int bit = 0; bit < 8; ++bit)
            crc = static_cast<std::uint16_t>(
                (crc & 0x8000) ? (crc << 1) ^ 0x1021 : crc << 1);
    }
    return crc;
}

TEST(Crc16Test, MatchesBitSerialReference)
{
    // Every length 0..64 covers each residue of an 8-byte block, and
    // every start offset 0..7 covers each pointer alignment.
    Rng rng(0xC4C16);
    std::vector<std::uint8_t> buffer(72);
    for (auto &b : buffer)
        b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t size = 0; size <= 64; ++size)
            EXPECT_EQ(crc16(buffer.data() + offset, size),
                      bitSerialCrc16(buffer.data() + offset, size))
                << "offset=" << offset << " size=" << size;
}

/** One pinned frame: pack() must emit exactly these bytes. */
struct GoldenFrame
{
    unsigned bits;
    std::uint16_t sequence;
    std::size_t count;
    std::vector<std::uint8_t> bytes;
};

/** Deterministic d-bit samples: the top bits of a Fibonacci hash. */
std::vector<std::uint32_t>
goldenSamples(unsigned bits, std::size_t count)
{
    std::vector<std::uint32_t> samples(count);
    for (std::size_t i = 0; i < count; ++i)
        samples[i] = static_cast<std::uint32_t>((i + 1) * 2654435761u) >>
                     (32 - bits);
    return samples;
}

class PacketizerGolden : public ::testing::TestWithParam<GoldenFrame>
{
};

TEST_P(PacketizerGolden, WireBytesArePinned)
{
    const GoldenFrame &golden = GetParam();
    Packetizer packetizer({golden.bits});
    auto samples = goldenSamples(golden.bits, golden.count);
    EXPECT_EQ(packetizer.pack(golden.sequence, samples), golden.bytes);
    auto unpacked = packetizer.unpack(golden.bytes);
    ASSERT_TRUE(unpacked.valid);
    EXPECT_EQ(unpacked.sequence, golden.sequence);
    EXPECT_EQ(unpacked.samples, samples);
}

// Odd sample counts leave 3, 6 and 4 zero pad bits in the last payload
// byte at d = 1, 10 and 12; d = 16 is always byte-aligned. Every
// payload spans more than 64 bits, so a 64-bit accumulator wraps.
INSTANTIATE_TEST_SUITE_P(
    Widths, PacketizerGolden,
    ::testing::Values(
        GoldenFrame{1, 0x0001, 77,
                    {0xA5, 0x00, 0x01, 0x01, 0x00, 0x4D, 0xA5, 0xA5, 0xAD,
                     0x2D, 0x29, 0x69, 0x6B, 0x4B, 0x4A, 0x58, 0x26, 0x55}},
        GoldenFrame{10, 0x1234, 13,
                    {0xA5, 0x12, 0x34, 0x0A, 0x00, 0x0D, 0x9E, 0x0F, 0x1D,
                     0xA9, 0xE3, 0x17, 0x2D, 0x55, 0x3B, 0xC6, 0x8F, 0xCB,
                     0x8C, 0xC5, 0xAA, 0x08, 0xC0, 0x39, 0xE6}},
        GoldenFrame{12, 0xBEEF, 11,
                    {0xA5, 0xBE, 0xEF, 0x0C, 0x00, 0x0B, 0x9E, 0x33, 0xC6,
                     0xDA, 0xA7, 0x8D, 0x17, 0x1B, 0x54, 0x53, 0x8F, 0x1B,
                     0x8F, 0xF2, 0xE2, 0xCC, 0x60, 0x3F, 0x80}},
        GoldenFrame{16, 0xFFFF, 5,
                    {0xA5, 0xFF, 0xFF, 0x10, 0x00, 0x05, 0x9E, 0x37, 0x3C,
                     0x6E, 0xDA, 0xA6, 0x78, 0xDD, 0x17, 0x15, 0xFA,
                     0xB2}}),
    [](const ::testing::TestParamInfo<GoldenFrame> &info) {
        return std::to_string(info.param.bits) + "bit";
    });

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

TEST(PacketizerTest, EverySingleBitFlipOfAFullFrameIsRejected)
{
    // The paper's scale point: 1024 samples x 10 bits, 1288 bytes.
    Packetizer packetizer({10});
    auto frame = packetizer.pack(0x5A5A, goldenSamples(10, 1024));
    ASSERT_EQ(frame.size(), 1288u);
    std::size_t accepted = 0;
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
        const auto mask = static_cast<std::uint8_t>(0x80u >> (bit % 8));
        frame[bit / 8] ^= mask;
        auto unpacked = packetizer.unpack(frame);
        if (unpacked.valid || !unpacked.samples.empty()) {
            ++accepted;
            ADD_FAILURE() << "flip of bit " << bit << " not rejected";
        }
        frame[bit / 8] ^= mask;
    }
    EXPECT_EQ(accepted, 0u);
    EXPECT_TRUE(packetizer.unpack(frame).valid);
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
