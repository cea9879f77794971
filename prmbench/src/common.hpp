// Small shared helpers for the prm benchmark: clock, seeded RNG, number
// spelling, digests and field extraction from response bodies.
//
// The load generator deliberately avoids the library's own HTTP client and
// JSON parser: the harness must read the same on a parent commit and on a
// change that rewrites those layers, so it only depends on the wire format.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace prmbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: a tiny, fully specified generator, so the same seed gives the
/// same request bytes with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream seed from a run seed and a salt.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  return rng.next();
}

/// Shortest round-trip spelling of a double (what the server parses back to
/// the same bits).
inline void append_double(std::string& out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

inline void append_uint(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

/// FNV-1a 64 over bytes, chainable.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

/// The number that follows `"key":` in a JSON body (first occurrence), or
/// nullopt when absent or not a number.
inline std::optional<double> number_field(std::string_view body, std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle += '"';
  needle += key;
  needle += "\":";
  const std::size_t pos = body.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  const char* first = body.data() + pos + needle.size();
  const char* last = body.data() + body.size();
  double value = 0.0;
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc()) return std::nullopt;
  return value;
}

/// The elements of the number array that follows `"key":[`, or nullopt.
/// Non-numeric elements (null) make the whole array invalid.
inline std::optional<std::vector<double>> number_array_field(std::string_view body,
                                                             std::string_view key) {
  std::string needle;
  needle += '"';
  needle += key;
  needle += "\":[";
  const std::size_t pos = body.find(needle);
  if (pos == std::string_view::npos) return std::nullopt;
  std::vector<double> out;
  const char* p = body.data() + pos + needle.size();
  const char* last = body.data() + body.size();
  if (p < last && *p == ']') return out;
  while (p < last) {
    double value = 0.0;
    const auto result = std::from_chars(p, last, value);
    if (result.ec != std::errc()) return std::nullopt;
    out.push_back(value);
    p = result.ptr;
    if (p < last && *p == ',') {
      ++p;
      continue;
    }
    if (p < last && *p == ']') return out;
    return std::nullopt;
  }
  return std::nullopt;
}

/// True when the body contains `"key":true`.
inline bool bool_field_true(std::string_view body, std::string_view key) {
  std::string needle;
  needle += '"';
  needle += key;
  needle += "\":true";
  return body.find(needle) != std::string_view::npos;
}

}  // namespace prmbench
