// Constant-time modular inversion by Bernstein–Yang "safegcd" divsteps
// (Fast constant-time gcd computation and modular inversion, 2019), in the
// signed-62-bit-limb form of libsecp256k1's modinv64.
//
// The inverse of x modulo an odd prime m is found by running 590 divsteps on
// (f, g) = (m, x) — enough for any 256-bit modulus — in 10 batches of 59.
// Each batch works on the low 64 bits of f and g only and yields a 2×2
// transition matrix scaled by 2^62; applying it to the full-width f, g and
// to the Bézout coefficients d, e (kept mod m by adding a multiple of m that
// clears the low 62 bits) divides by 2^62 exactly. Every step is a fixed
// sequence of masked operations, so the running time does not depend on x:
// safe for nonces and secret-derived coordinates.
#pragma once

#include <cstdint>

#include "src/crypto/u256.h"

namespace daric::crypto::modinv {

/// A 256-bit value as five signed limbs, value = Σ v[i]·2^(62·i).
struct Signed62 {
  std::int64_t v[5];
};

struct ModInfo {
  Signed62 modulus;
  std::uint64_t modulus_inv62;  // modulus⁻¹ mod 2^62
};

/// Splits a canonical 4×64 value into signed-62 limbs (all non-negative).
constexpr Signed62 to_signed62(const U256& a) {
  constexpr std::uint64_t kM62 = ~std::uint64_t{0} >> 2;
  const auto& l = a.limb;
  return {{static_cast<std::int64_t>(l[0] & kM62),
           static_cast<std::int64_t>((l[0] >> 62 | l[1] << 2) & kM62),
           static_cast<std::int64_t>((l[1] >> 60 | l[2] << 4) & kM62),
           static_cast<std::int64_t>((l[2] >> 58 | l[3] << 6) & kM62),
           static_cast<std::int64_t>(l[3] >> 56)}};
}

/// m⁻¹ mod 2^62 for odd m, by Newton iteration (each step doubles the
/// number of correct low bits, starting from 3).
constexpr std::uint64_t inv62(std::uint64_t m) {
  std::uint64_t r = m;
  for (int i = 0; i < 5; ++i) r *= 2 - m * r;
  return r & (~std::uint64_t{0} >> 2);
}

constexpr ModInfo make_modinfo(const U256& m) { return {to_signed62(m), inv62(m.limb[0])}; }

/// x⁻¹ mod m for x in [0, m); returns 0 for x = 0. Constant time in x.
U256 inverse(const U256& x, const ModInfo& info);

}  // namespace daric::crypto::modinv
