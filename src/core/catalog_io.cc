#include "core/catalog_io.hh"

#include <charconv>
#include <climits>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "base/logging.hh"
#include "base/parse.hh"

namespace mindful::core {

namespace {

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    std::size_t last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

double
parseDouble(const std::string &value, int line)
{
    // std::from_chars under the hood: the same catalog file parses
    // identically in every process locale, and malformed values fail
    // here with the line number instead of throwing from std::stod.
    std::optional<double> parsed = mindful::parseDouble(value);
    if (!parsed)
        MINDFUL_FATAL("catalog line ", line, ": '", value,
                      "' is not a number");
    return *parsed;
}

std::uint64_t
parseUnsigned(const std::string &value, int line)
{
    // Integers parse directly as std::uint64_t — never through
    // double, which silently rounds values above 2^53.
    std::optional<std::uint64_t> parsed = mindful::parseUnsigned(value);
    if (!parsed)
        MINDFUL_FATAL("catalog line ", line, ": '", value,
                      "' is not a non-negative integer");
    return *parsed;
}

/** Parse an unsigned field that must lie in [@p lo, @p hi]. */
std::uint64_t
parseInRange(const std::string &key, const std::string &value,
             std::uint64_t lo, std::uint64_t hi, int line)
{
    // Range-check before any narrowing cast, so an out-of-range value
    // fails here with its line number instead of wrapping silently.
    const std::uint64_t parsed = parseUnsigned(value, line);
    if (parsed < lo || parsed > hi)
        MINDFUL_FATAL("catalog line ", line, ": '", key, "' = ", value,
                      " must lie in [", lo, ", ", hi, "]");
    return parsed;
}

bool
parseBool(const std::string &value, int line)
{
    if (value == "true" || value == "yes" || value == "1")
        return true;
    if (value == "false" || value == "no" || value == "0")
        return false;
    MINDFUL_FATAL("catalog line ", line, ": '", value,
                  "' is not a boolean (true/false)");
}

/**
 * @p value as std::to_chars writes it: locale-free ("3.14", never
 * "3,14" or "2.048" channels), and for a double the shortest text
 * that parses back to the same bits.
 */
template <typename T>
std::string
number(T value)
{
    char buffer[32]; // holds any 64-bit integer or shortest double
    return std::string(
        buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

/** Validate the cross-field invariants of a parsed design. */
void
validate(const SocDesign &soc, int line)
{
    if (soc.reportedChannels == 0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'channels' must be positive");
    if (soc.reportedArea.inSquareMetres() <= 0.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'area_mm2' must be positive");
    if (soc.reportedPower.inWatts() <= 0.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'power_mw' must be positive");
    if (soc.samplingFrequency.inHertz() <= 0.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'sampling_khz' must be positive");
    if (soc.name.empty())
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'name' is required");
    if (soc.sensingPowerFraction <= 0.0 || soc.sensingPowerFraction >= 1.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'sensing_power_fraction' must lie in (0, 1)");
    if (soc.sensingAreaFraction <= 0.0 || soc.sensingAreaFraction >= 1.0)
        MINDFUL_FATAL("catalog entry ending at line ", line,
                      ": 'sensing_area_fraction' must lie in (0, 1)");
}

} // namespace

std::vector<SocDesign>
parseCatalog(std::istream &input)
{
    std::vector<SocDesign> designs;
    bool in_section = false;
    SocDesign current;
    int line_number = 0;
    int section_line = 0;

    auto finish = [&](int line) {
        if (!in_section)
            return;
        validate(current, line);
        designs.push_back(current);
        in_section = false;
    };

    std::string raw;
    while (std::getline(input, raw)) {
        ++line_number;
        std::string line = raw;
        // Strip comments.
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        if (line == "[soc]") {
            finish(line_number);
            current = SocDesign{};
            in_section = true;
            section_line = line_number;
            continue;
        }
        if (!in_section)
            MINDFUL_FATAL("catalog line ", line_number,
                          ": key outside a [soc] section");

        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            MINDFUL_FATAL("catalog line ", line_number,
                          ": expected 'key = value'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));

        if (key == "id") {
            current.id = static_cast<int>(
                parseInRange(key, value, 0, INT_MAX, line_number));
        } else if (key == "name") {
            current.name = value;
        } else if (key == "reference") {
            current.reference = value;
        } else if (key == "sensor") {
            if (value == "electrodes")
                current.sensorType = ni::SensorType::Electrode;
            else if (value == "spad")
                current.sensorType = ni::SensorType::Spad;
            else
                MINDFUL_FATAL("catalog line ", line_number, ": sensor '",
                              value, "' must be electrodes or spad");
        } else if (key == "channels") {
            current.reportedChannels = parseUnsigned(value, line_number);
        } else if (key == "area_mm2") {
            current.reportedArea = Area::squareMillimetres(
                parseDouble(value, line_number));
        } else if (key == "power_mw") {
            current.reportedPower =
                Power::milliwatts(parseDouble(value, line_number));
        } else if (key == "sampling_khz") {
            current.samplingFrequency =
                Frequency::kilohertz(parseDouble(value, line_number));
        } else if (key == "sample_bits") {
            // The [1, 16] range AdcModel and Packetizer accept.
            current.sampleBits = static_cast<unsigned>(
                parseInRange(key, value, 1, 16, line_number));
        } else if (key == "wireless") {
            current.wireless = parseBool(value, line_number);
        } else if (key == "validated") {
            current.validatedInOrExVivo = parseBool(value, line_number);
        } else if (key == "scaling_law") {
            if (value == "sqrt")
                current.recipe.law = ScalingLaw::SqrtAreaLinearPower;
            else if (value == "linear")
                current.recipe.law = ScalingLaw::Linear;
            else
                MINDFUL_FATAL("catalog line ", line_number,
                              ": scaling_law '", value,
                              "' must be sqrt or linear");
        } else if (key == "base_channels") {
            current.recipe.baseChannels =
                parseUnsigned(value, line_number);
        } else if (key == "area_correction") {
            current.recipe.areaCorrection =
                parseDouble(value, line_number);
        } else if (key == "power_correction") {
            current.recipe.powerCorrection =
                parseDouble(value, line_number);
        } else if (key == "correction_note") {
            current.recipe.correctionNote = value;
        } else if (key == "sensing_power_fraction") {
            current.sensingPowerFraction =
                parseDouble(value, line_number);
        } else if (key == "sensing_area_fraction") {
            current.sensingAreaFraction = parseDouble(value, line_number);
        } else if (key == "comm_share") {
            current.commShareOfNonSensing =
                parseDouble(value, line_number);
        } else {
            MINDFUL_FATAL("catalog line ", line_number,
                          ": unknown key '", key, "'");
        }
    }
    finish(line_number ? line_number : section_line);
    return designs;
}

std::vector<SocDesign>
parseCatalogString(const std::string &text)
{
    std::istringstream stream(text);
    return parseCatalog(stream);
}

std::vector<SocDesign>
loadCatalog(const std::string &path)
{
    std::ifstream file(path);
    if (!file)
        MINDFUL_FATAL("cannot open catalog file '", path, "'");
    return parseCatalog(file);
}

void
writeCatalog(std::ostream &output, const std::vector<SocDesign> &designs)
{
    for (const auto &soc : designs) {
        output << "[soc]\n";
        output << "id = " << number(soc.id) << '\n';
        output << "name = " << soc.name << '\n';
        if (!soc.reference.empty())
            output << "reference = " << soc.reference << '\n';
        output << "sensor = "
               << (soc.sensorType == ni::SensorType::Spad ? "spad"
                                                          : "electrodes")
               << '\n';
        output << "channels = " << number(soc.reportedChannels) << '\n';
        output << "area_mm2 = "
               << number(soc.reportedArea.inSquareMillimetres()) << '\n';
        output << "power_mw = " << number(soc.reportedPower.inMilliwatts())
               << '\n';
        output << "sampling_khz = "
               << number(soc.samplingFrequency.inKilohertz()) << '\n';
        output << "sample_bits = " << number(soc.sampleBits) << '\n';
        output << "wireless = " << (soc.wireless ? "true" : "false")
               << '\n';
        output << "validated = "
               << (soc.validatedInOrExVivo ? "true" : "false") << '\n';
        output << "scaling_law = "
               << (soc.recipe.law == ScalingLaw::Linear ? "linear"
                                                        : "sqrt")
               << '\n';
        output << "base_channels = " << number(soc.recipe.baseChannels)
               << '\n';
        output << "area_correction = "
               << number(soc.recipe.areaCorrection) << '\n';
        output << "power_correction = "
               << number(soc.recipe.powerCorrection) << '\n';
        if (!soc.recipe.correctionNote.empty())
            output << "correction_note = " << soc.recipe.correctionNote
                   << '\n';
        output << "sensing_power_fraction = "
               << number(soc.sensingPowerFraction) << '\n';
        output << "sensing_area_fraction = "
               << number(soc.sensingAreaFraction) << '\n';
        output << "comm_share = " << number(soc.commShareOfNonSensing)
               << '\n';
        output << '\n';
    }
}

std::string
writeCatalogString(const std::vector<SocDesign> &designs)
{
    std::ostringstream stream;
    writeCatalog(stream, designs);
    return stream.str();
}

} // namespace mindful::core
