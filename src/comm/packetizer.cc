#include "comm/packetizer.hh"

#include <array>

#include "base/logging.hh"

namespace mindful::comm {

namespace {

using CrcTables = std::array<std::array<std::uint16_t, 256>, 8>;

/**
 * Slice-by-8 tables: entry [k][b] is byte b's contribution to the CRC
 * register (zero init) followed by k zero bytes.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables tables{};
    for (unsigned b = 0; b < 256; ++b) {
        auto crc = static_cast<std::uint16_t>(b << 8);
        for (int bit = 0; bit < 8; ++bit)
            crc = static_cast<std::uint16_t>(
                (crc & 0x8000) ? (crc << 1) ^ 0x1021 : crc << 1);
        tables[0][b] = crc;
    }
    for (std::size_t k = 1; k < tables.size(); ++k)
        for (unsigned b = 0; b < 256; ++b) {
            const std::uint16_t prev = tables[k - 1][b];
            tables[k][b] = static_cast<std::uint16_t>(
                (prev << 8) ^ tables[0][prev >> 8]);
        }
    return tables;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/**
 * MSB-first bit packer: samples shift into a 64-bit accumulator and
 * leave it as whole bytes. The caller sizes the output buffer.
 */
class BitWriter
{
  public:
    explicit BitWriter(std::uint8_t *out) : _out(out) {}

    /** Append the low @p bits (<= 16) of @p value. */
    void
    write(std::uint32_t value, unsigned bits)
    {
        _acc = (_acc << bits) | value;
        _fill += bits;
        while (_fill >= 8) {
            _fill -= 8;
            *_out++ = static_cast<std::uint8_t>(_acc >> _fill);
        }
    }

    /** Emit the last partial byte, zero-padded on the right. */
    void
    flush()
    {
        if (_fill > 0)
            *_out++ = static_cast<std::uint8_t>(_acc << (8 - _fill));
    }

  private:
    std::uint8_t *_out;
    std::uint64_t _acc = 0;
    unsigned _fill = 0; //!< pending bits in _acc, always < 8 between writes
};

/** MSB-first bit reader over a byte span, refilled a byte at a time. */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size)
        : _next(data), _end(data + size)
    {
    }

    /** Read @p bits (<= 16) bits; false when the span runs out. */
    bool
    read(std::uint32_t &value, unsigned bits)
    {
        while (_fill < bits) {
            if (_next == _end)
                return false;
            _acc = (_acc << 8) | *_next++;
            _fill += 8;
        }
        _fill -= bits;
        value = static_cast<std::uint32_t>(_acc >> _fill) &
                ((1u << bits) - 1);
        return true;
    }

  private:
    const std::uint8_t *_next;
    const std::uint8_t *_end;
    std::uint64_t _acc = 0;
    unsigned _fill = 0; //!< unread bits in the low end of _acc
};

} // namespace

std::uint16_t
crc16(const std::uint8_t *data, std::size_t size)
{
    const auto &t = kCrcTables;
    std::uint16_t crc = 0xFFFF;
    // The 16-bit register folds into the first two bytes of each
    // 8-byte block; every byte then contributes through the table for
    // the number of bytes that follow it in the block.
    for (; size >= 8; data += 8, size -= 8)
        crc = static_cast<std::uint16_t>(
            t[7][data[0] ^ (crc >> 8)] ^ t[6][data[1] ^ (crc & 0xFF)] ^
            t[5][data[2]] ^ t[4][data[3]] ^ t[3][data[4]] ^
            t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]]);
    for (; size > 0; ++data, --size)
        crc = static_cast<std::uint16_t>((crc << 8) ^
                                         t[0][(crc >> 8) ^ *data]);
    return crc;
}

Packetizer::Packetizer(FrameConfig config) : _config(config)
{
    MINDFUL_ASSERT(config.sampleBits >= 1 && config.sampleBits <= 16,
                   "sample width must lie in [1, 16] bits");
}

std::vector<std::uint8_t>
Packetizer::pack(std::uint16_t sequence,
                 const std::vector<std::uint32_t> &samples) const
{
    MINDFUL_ASSERT(samples.size() <= 0xFFFF,
                   "at most 65535 samples per frame");
    const std::uint32_t cap = (1u << _config.sampleBits) - 1;
    for (std::uint32_t s : samples)
        MINDFUL_ASSERT(s <= cap, "sample ", s, " exceeds ",
                       _config.sampleBits, "-bit range");

    std::vector<std::uint8_t> frame(frameBits(samples.size()) / 8);
    frame[0] = syncByte;
    frame[1] = static_cast<std::uint8_t>(sequence >> 8);
    frame[2] = static_cast<std::uint8_t>(sequence & 0xFF);
    frame[3] = static_cast<std::uint8_t>(_config.sampleBits);
    frame[4] = static_cast<std::uint8_t>(samples.size() >> 8);
    frame[5] = static_cast<std::uint8_t>(samples.size() & 0xFF);

    BitWriter writer(frame.data() + headerBytes);
    for (std::uint32_t s : samples)
        writer.write(s, _config.sampleBits);
    writer.flush();

    const std::size_t body = frame.size() - crcBytes;
    std::uint16_t checksum = crc16(frame.data(), body);
    frame[body] = static_cast<std::uint8_t>(checksum >> 8);
    frame[body + 1] = static_cast<std::uint8_t>(checksum & 0xFF);
    return frame;
}

UnpackedFrame
Packetizer::unpack(const std::vector<std::uint8_t> &frame) const
{
    UnpackedFrame out;
    if (frame.size() < headerBytes + crcBytes || frame[0] != syncByte)
        return out;

    std::uint16_t received_crc = static_cast<std::uint16_t>(
        (frame[frame.size() - 2] << 8) | frame[frame.size() - 1]);
    if (crc16(frame.data(), frame.size() - crcBytes) != received_crc)
        return out;

    out.sequence =
        static_cast<std::uint16_t>((frame[1] << 8) | frame[2]);
    unsigned bits = frame[3];
    std::size_t count = static_cast<std::size_t>((frame[4] << 8) | frame[5]);
    if (bits != _config.sampleBits)
        return out;

    // Validate the declared sample count against the payload region
    // before any allocation: a forged or corrupted count field must
    // not drive resize(). Only the canonical payload length pack()
    // emits — `count` samples rounded up to whole bytes — is valid, so
    // a payload too short for `count` or padded with extra bytes is
    // rejected outright.
    const std::size_t payload_bytes =
        frame.size() - headerBytes - crcBytes;
    if (payload_bytes != (count * static_cast<std::size_t>(bits) + 7) / 8)
        return out;

    BitReader reader(frame.data() + headerBytes, payload_bytes);
    out.samples.resize(count);
    for (std::uint32_t &value : out.samples) {
        if (!reader.read(value, bits)) {
            out.samples.clear();
            return out;
        }
    }
    out.valid = true;
    return out;
}

std::size_t
Packetizer::frameBits(std::size_t sample_count) const
{
    std::size_t payload_bits = sample_count * _config.sampleBits;
    std::size_t payload_bytes = (payload_bits + 7) / 8;
    return (headerBytes + payload_bytes + crcBytes) * 8;
}

double
Packetizer::overheadFraction(std::size_t sample_count) const
{
    double total = static_cast<double>(frameBits(sample_count));
    double payload =
        static_cast<double>(sample_count * _config.sampleBits);
    return (total - payload) / total;
}

} // namespace mindful::comm
