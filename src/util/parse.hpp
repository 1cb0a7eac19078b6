#pragma once
// Exception-free numeric parsing over string views. The at_lint banned-call
// rule forbids naked std::sto* in src/ — every call site that "knew" its
// input was numeric has at some point met a log line that wasn't (uncaught
// std::invalid_argument out of a parser that promised std::optional). These
// helpers make the failure mode a nullopt the caller must look at.
//
// Semantics: the *entire* view (no leading/trailing whitespace, no trailing
// garbage) must parse, otherwise nullopt. Overflow is nullopt. This is
// deliberately stricter than std::stoll (no '+', no leading whitespace):
// the notice-log ts field, for one, is parse_num<SimTime> of the whole
// field.

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <type_traits>

#include "util/annotations.hpp"

namespace at::util {

/// Strict whole-string integer parse; nullopt on empty input, sign
/// mismatch for unsigned T, trailing garbage, or overflow. AT_SANITIZES:
/// the strict grammar + overflow rejection make the returned value safe
/// for downstream sizing/indexing (range checks are still the caller's
/// job where the domain is narrower than T).
template <typename T>
  requires std::is_integral_v<T>
[[nodiscard]] std::optional<T> parse_num(std::string_view text) noexcept AT_SANITIZES {
  T value{};
  const char* const first = text.data();
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || first == last) return std::nullopt;
  return value;
}

/// Strict whole-string double parse. Implemented over strtod because
/// libstdc++'s from_chars for floating point arrived late and the hot
/// paths never parse doubles; requires a NUL-terminated buffer, so it
/// copies when the view is not already terminated.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view text) noexcept
    AT_SANITIZES {
  if (text.empty() || text.front() == ' ' || text.front() == '\t') return std::nullopt;
  char buf[64];
  if (text.size() >= sizeof buf) return std::nullopt;  // no numeric literal is this long
  for (std::size_t i = 0; i < text.size(); ++i) buf[i] = text[i];
  buf[text.size()] = '\0';
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + text.size()) return std::nullopt;
  return value;
}

}  // namespace at::util
