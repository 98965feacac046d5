#ifndef MINOS_OBS_JSON_H_
#define MINOS_OBS_JSON_H_

#include <string>
#include <string_view>

namespace minos::obs {

/// Escapes `s` for inclusion inside JSON double quotes.
std::string JsonEscape(std::string_view s);

/// Formats a double the way the exporters do: integers render without a
/// fractional part, everything else with enough digits to round-trip.
std::string JsonNumber(double v);

}  // namespace minos::obs

#endif  // MINOS_OBS_JSON_H_
