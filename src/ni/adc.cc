#include "ni/adc.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mindful::ni {

AdcModel::AdcModel(unsigned bits, double full_scale_uv, Frequency sampling)
    : _bits(bits), _fullScale(full_scale_uv), _sampling(sampling)
{
    MINDFUL_ASSERT(bits >= 1 && bits <= 16,
                   "ADC bitwidth must be in [1, 16], got ", bits);
    MINDFUL_ASSERT(std::isfinite(full_scale_uv) && full_scale_uv > 0.0,
                   "ADC full scale must be positive and finite");
    MINDFUL_ASSERT(sampling.inHertz() > 0.0,
                   "ADC sampling frequency must be positive");
}

double
AdcModel::lsbMicrovolts() const
{
    return 2.0 * _fullScale / static_cast<double>(1u << _bits);
}

std::uint32_t
AdcModel::quantize(double microvolts) const
{
    // NaN would pass through the clamp to the integer cast, where it is
    // undefined; it takes the bottom rail instead.
    double clamped = std::isnan(microvolts)
                         ? -_fullScale
                         : std::clamp(microvolts, -_fullScale, _fullScale);
    double normalized = (clamped + _fullScale) / (2.0 * _fullScale);
    // normalized * 2^d lies in [0, 2^d], where truncation is floor().
    auto code = static_cast<std::uint32_t>(
        normalized * static_cast<double>(1u << _bits));
    return std::min(code, maxCode());
}

double
AdcModel::dequantize(std::uint32_t code) const
{
    double step = lsbMicrovolts();
    return -_fullScale + (static_cast<double>(code) + 0.5) * step;
}

std::vector<std::uint32_t>
AdcModel::quantize(const std::vector<double> &microvolts) const
{
    std::vector<std::uint32_t> codes(microvolts.size());
    for (std::size_t i = 0; i < codes.size(); ++i)
        codes[i] = quantize(microvolts[i]);
    return codes;
}

DataRate
AdcModel::perChannelRate() const
{
    return _sampling * static_cast<double>(_bits);
}

} // namespace mindful::ni
