/**
 * @file
 * Uplink frame packetizer.
 *
 * In a communication-centric implant the only computation is
 * "digitize and packetize" (Sec. 3.1). This module defines a
 * concrete wire format so the end-to-end examples move real bits:
 *
 *     | sync (8) | seq (16) | bits/sample (8) | count (16) |
 *     | payload: count samples packed MSB-first at d bits  |
 *     | CRC-16/CCITT over everything above (16)            |
 *
 * and quantifies the framing overhead that raw-data streaming pays.
 */

#ifndef MINDFUL_COMM_PACKETIZER_HH
#define MINDFUL_COMM_PACKETIZER_HH

#include <cstdint>
#include <vector>

namespace mindful::comm {

/** CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF). */
std::uint16_t crc16(const std::uint8_t *data, std::size_t size);

/** Framing parameters. */
struct FrameConfig
{
    unsigned sampleBits = 10; //!< payload sample width d
};

/** Result of parsing a received frame. */
struct UnpackedFrame
{
    bool valid = false; //!< sync found, sizes consistent, CRC passed
    std::uint16_t sequence = 0;
    std::vector<std::uint32_t> samples; //!< empty unless valid
};

/** Bit-exact frame encoder / decoder. */
class Packetizer
{
  public:
    explicit Packetizer(FrameConfig config = {});

    const FrameConfig &config() const { return _config; }

    /** Encode one frame. Sample values must fit in d bits. */
    std::vector<std::uint8_t> pack(std::uint16_t sequence,
                                   const std::vector<std::uint32_t>
                                       &samples) const;

    /** Decode one frame (CRC-checked). */
    UnpackedFrame unpack(const std::vector<std::uint8_t> &frame) const;

    /** Encoded size in bits for @p sample_count samples. */
    std::size_t frameBits(std::size_t sample_count) const;

    /** Non-payload share of the frame: (frame - payload) / frame. */
    double overheadFraction(std::size_t sample_count) const;

    static constexpr std::uint8_t syncByte = 0xA5;
    static constexpr std::size_t headerBytes = 6;
    static constexpr std::size_t crcBytes = 2;

  private:
    FrameConfig _config;
};

} // namespace mindful::comm

#endif // MINDFUL_COMM_PACKETIZER_HH
