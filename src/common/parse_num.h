// Strict full-consumption numeric parsing. std::stoi/std::stod accept
// trailing garbage ("1.5" -> 1, "2junk" -> 2) and throw raw "stoi"/"stod"
// messages on failure; every user-facing parser in this repo wants the same
// contract instead — the whole token is the number or the parse fails — so
// it lives here once. Returns std::nullopt on any failure (bad syntax,
// partial consumption, out of range); callers attach their own diagnostics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace coc {

inline std::optional<int> ParseFullInt(const std::string& token) {
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
