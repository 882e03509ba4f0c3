/**
 * @file
 * SoC catalog serialization.
 *
 * The paper's artifact lets users "add a new SoC entry with a custom
 * name and parameter values" through editable parameter files
 * (Sec. A.7.1). This module provides the equivalent: a small
 * line-oriented `[soc]`-section format that round-trips every
 * SocDesign field, with strict validation and line-numbered errors.
 *
 * Format example:
 *
 *     [soc]
 *     id = 100
 *     name = NextGen
 *     sensor = electrodes        # or: spad
 *     channels = 2048
 *     area_mm2 = 400
 *     power_mw = 30
 *     sampling_khz = 10
 *     sample_bits = 12
 *     wireless = true
 *     validated = true
 *     scaling_law = sqrt         # or: linear
 *     base_channels = 0          # 0 = use `channels`
 *     area_correction = 1.0
 *     power_correction = 1.0
 *     correction_note =
 *     sensing_power_fraction = 0.5
 *     sensing_area_fraction = 0.45
 *     comm_share = 0.8
 *
 * Blank lines and `#` comments are ignored. Unknown keys are fatal
 * (they are always typos), and so are an `id` above INT_MAX and a
 * `sample_bits` outside the [1, 16] range the ADC model accepts.
 *
 * Parsing and serialization are locale-independent (base/parse.hh):
 * numbers always use the "C" locale grammar — `3.14`, never `3,14` —
 * regardless of the process locale, integer fields parse exactly as
 * 64-bit integers (no rounding through double above 2^53), doubles
 * are written in their shortest round-trip form, and malformed values
 * fail with the catalog line number instead of a raw std::stod
 * exception.
 */

#ifndef MINDFUL_CORE_CATALOG_IO_HH
#define MINDFUL_CORE_CATALOG_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/soc_design.hh"

namespace mindful::core {

/** Parse a catalog document; fatal with a line number on errors. */
std::vector<SocDesign> parseCatalog(std::istream &input);

/** Parse from a string (convenience for tests / embedded configs). */
std::vector<SocDesign> parseCatalogString(const std::string &text);

/** Load from a file; fatal if the file cannot be opened. */
std::vector<SocDesign> loadCatalog(const std::string &path);

/** Serialize designs in the format parseCatalog() accepts. */
void writeCatalog(std::ostream &output,
                  const std::vector<SocDesign> &designs);

/** Serialize to a string. */
std::string writeCatalogString(const std::vector<SocDesign> &designs);

} // namespace mindful::core

#endif // MINDFUL_CORE_CATALOG_IO_HH
