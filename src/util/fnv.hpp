#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gnnerator::util {

/// The standard FNV-1a-64 offset basis with its last decimal digit dropped.
/// The serving report fingerprints and the cost-oracle state fingerprint
/// were pinned with it, so those hashes keep it.
inline constexpr std::uint64_t kFnvShortBasis = 1469598103934665603ULL;

/// FNV-1a-64, the one fingerprint primitive of the library, its benches and
/// its tests: graph and plan-cache fingerprints, sampling-PRNG seeds, fused
/// frontier keys, cost-oracle state and the serving golden fingerprints.
/// Platform independent: integers are mixed byte by byte, least significant
/// first.
class Fnv1a {
 public:
  Fnv1a() = default;
  explicit Fnv1a(std::uint64_t offset_basis) : hash_(offset_basis) {}

  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }

  void bytes(std::string_view s) {
    for (const char c : s) {
      byte(static_cast<std::uint8_t>(c));
    }
  }

  /// The 8 bytes of `value`.
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

  /// Length-prefixed bytes, so adjacent strings cannot alias.
  void mix_string(std::string_view s) {
    mix(s.size());
    bytes(s);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a-64 of a byte string.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  Fnv1a fnv;
  fnv.bytes(bytes);
  return fnv.value();
}

/// 16 lower-case hex digits, most significant first.
inline std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(value >> (4 * i)) & 0xf];
  }
  return out;
}

}  // namespace gnnerator::util
