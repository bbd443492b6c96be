// Small helpers shared by the benchmark driver and its self-test.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// 64-bit FNV-1a, printed as the run's output digest.
inline std::uint64_t Fnv1a(const std::string& s,
                           std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// A number for the human-readable lines (6 significant digits).
inline std::string Fmt(double v) {
  std::ostringstream ss;
  ss.precision(6);
  ss << v;
  return ss.str();
}

inline std::string Hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) s[static_cast<std::size_t>(i)] =
      kDigits[v & 15];
  return s;
}

/// HostProbe's time on the 4-vCPU VM the benchmark was defined on (GCC 12,
/// Release) at its usual speed: the unit the gated times are scaled to.
inline constexpr double kProbeNominalS = 0.0004;

/// A fixed piece of work that is not the program's — a pointer chase over
/// a random cycle, integer hashing, square roots and number formatting —
/// timed right after each timed piece of a workload (a set-up, a chunk, a
/// burst), so that the piece's time can be read against how fast the
/// shared host ran this thread at that moment. Its buffers are made once, so it never
/// allocates and the program's heap cannot change its time.
class HostProbe {
 public:
  HostProbe() : next_(kSize), data_(kSize) {
    // Sattolo's shuffle: one cycle through all kSize slots.
    for (std::uint32_t i = 0; i < kSize; ++i) next_[i] = i;
    std::uint32_t x = kSeed;
    for (std::uint32_t i = kSize - 1; i > 0; --i) {
      x = XorShift(x);
      std::swap(next_[i], next_[x % i]);
    }
  }

  /// Runs the fixed work once; returns its wall time in seconds.
  double Run() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t p = 0, x = kSeed;
    double acc = 0;
    std::size_t chars = 0;
    char buf[32];
    for (int i = 0; i < kSteps; ++i) {
      p = next_[p];
      x = XorShift(x);
      data_[p] += x;
      acc += std::sqrt(static_cast<double>(data_[p] ^ x));
      if ((i & 7) == 0) {
        chars += static_cast<std::size_t>(
            std::to_chars(buf, buf + sizeof buf, acc).ptr - buf);
      }
    }
    sink_ = acc + static_cast<double>(chars);
    return SecondsSince(t0);
  }

 private:
  static constexpr std::uint32_t kSize = 1 << 14;  // 64 KiB per buffer
  static constexpr std::uint32_t kSeed = 2463534242u;
  static constexpr int kSteps = 40000;
  static std::uint32_t XorShift(std::uint32_t x) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    return x;
  }
  std::vector<std::uint32_t> next_, data_;
  volatile double sink_ = 0;
};

}  // namespace perfbench
