#include "comm/packetizer.hh"

#include "base/logging.hh"

namespace mindful::comm {

std::uint16_t
crc16(const std::uint8_t *data, std::size_t size)
{
    std::uint16_t crc = 0xFFFF;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= static_cast<std::uint16_t>(data[i]) << 8;
        for (int bit = 0; bit < 8; ++bit) {
            if (crc & 0x8000)
                crc = static_cast<std::uint16_t>((crc << 1) ^ 0x1021);
            else
                crc = static_cast<std::uint16_t>(crc << 1);
        }
    }
    return crc;
}

namespace {

/** MSB-first bit packer into a byte vector. */
class BitWriter
{
  public:
    explicit BitWriter(std::vector<std::uint8_t> &out) : _out(out) {}

    void
    write(std::uint32_t value, unsigned bits)
    {
        for (unsigned i = bits; i-- > 0;) {
            if (_fill == 0)
                _out.push_back(0);
            std::uint8_t bit = (value >> i) & 1u;
            _out.back() = static_cast<std::uint8_t>(
                _out.back() | (bit << (7 - _fill)));
            _fill = (_fill + 1) % 8;
        }
    }

  private:
    std::vector<std::uint8_t> &_out;
    unsigned _fill = 0;
};

/** MSB-first bit reader over a byte span. */
class BitReader
{
  public:
    BitReader(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
    }

    bool
    read(std::uint32_t &value, unsigned bits)
    {
        value = 0;
        for (unsigned i = 0; i < bits; ++i) {
            std::size_t byte = _cursor / 8;
            if (byte >= _size)
                return false;
            unsigned offset = _cursor % 8;
            value = (value << 1) |
                    ((_data[byte] >> (7 - offset)) & 1u);
            ++_cursor;
        }
        return true;
    }

  private:
    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _cursor = 0;
};

} // namespace

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

    std::vector<std::uint8_t> frame;
    frame.reserve(headerBytes + samples.size() * 2 + crcBytes);
    frame.push_back(syncByte);
    frame.push_back(static_cast<std::uint8_t>(sequence >> 8));
    frame.push_back(static_cast<std::uint8_t>(sequence & 0xFF));
    frame.push_back(static_cast<std::uint8_t>(_config.sampleBits));
    frame.push_back(static_cast<std::uint8_t>(samples.size() >> 8));
    frame.push_back(static_cast<std::uint8_t>(samples.size() & 0xFF));

    BitWriter writer(frame);
    for (std::uint32_t s : samples)
        writer.write(s, _config.sampleBits);

    std::uint16_t checksum = crc16(frame.data(), frame.size());
    frame.push_back(static_cast<std::uint8_t>(checksum >> 8));
    frame.push_back(static_cast<std::uint8_t>(checksum & 0xFF));
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
    // not drive reserve(). Only the canonical payload length pack()
    // emits — `count` samples rounded up to whole bytes — is valid, so
    // a payload too short for `count` or padded with extra bytes is
    // rejected outright.
    const std::size_t payload_bytes =
        frame.size() - headerBytes - crcBytes;
    if (payload_bytes != (count * static_cast<std::size_t>(bits) + 7) / 8)
        return out;

    BitReader reader(frame.data() + headerBytes, payload_bytes);
    out.samples.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t value = 0;
        if (!reader.read(value, bits))
            return out;
        out.samples.push_back(value);
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
