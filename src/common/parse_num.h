// Strict full-consumption numeric parsing. std::stoi/std::stod accept
// trailing garbage ("1.5" -> 1, "2junk" -> 2), skip leading whitespace and
// a leading '+', and throw raw "stoi"/"stod" messages on failure; every
// user-facing parser in this repo wants the same contract instead — the
// whole token is the number or the parse fails — so it lives here once.
// Returns std::nullopt on any failure (bad syntax, leading space or '+',
// partial consumption, out of range); callers attach their own diagnostics.
// A leading '-' and an exponent sign ("1e+4") stay valid.
#pragma once

#include <cctype>
#include <cstdint>
#include <optional>
#include <string>

namespace coc {

/// Whether the token may start a number: non-empty, and not opening with
/// whitespace or '+' (both of which std::sto* would silently skip).
inline bool StartsLikeNumber(const std::string& token) {
  return !token.empty() && token[0] != '+' &&
         !std::isspace(static_cast<unsigned char>(token[0]));
}

inline std::optional<int> ParseFullInt(const std::string& token) {
  if (!StartsLikeNumber(token)) return std::nullopt;
  try {
    std::size_t pos = 0;
    const int v = std::stoi(token, &pos);
    if (pos != token.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

inline std::optional<std::int64_t> ParseFullInt64(const std::string& token) {
  if (!StartsLikeNumber(token)) return std::nullopt;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(token, &pos);
    if (pos != token.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

inline std::optional<double> ParseFullDouble(const std::string& token) {
  if (!StartsLikeNumber(token)) return std::nullopt;
  try {
    std::size_t pos = 0;
    const double v = std::stod(token, &pos);
    if (pos != token.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace coc
