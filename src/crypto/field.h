// secp256k1 base-field element (mod p = 2^256 - 2^32 - 977).
//
// Representation: five 52-bit limbs, value = Σ n[i]·2^(52·i), reduced lazily.
// Every element has a *magnitude* m bounding its limbs: n[0..3] ≤ 2m·(2^52−1)
// and n[4] ≤ 2m·(2^48−1). The rules:
//   * `+` adds magnitudes, `mul_int(k)` multiplies by k, `neg(m)` takes an
//     element of magnitude ≤ m to magnitude m + 1 — none of them reduce;
//   * `*` and `sqr()` accept inputs of magnitude ≤ kMaxMulMagnitude and
//     return magnitude 1;
//   * `normalize_weak()` brings any element back to magnitude 1;
//   * the canonical value (< p) is only materialized where it is observed:
//     `==`, `is_zero`, `is_odd`, `to_u256`, `to_be_bytes`, `to_storage`.
// Callers that chain unreduced operations (the point formulas) track the
// budget themselves; the general-purpose `-` and `neg()` weakly normalize
// their operand first, so they are safe for any input.
//
// Debug builds (!NDEBUG) carry the magnitude and a normalized flag in every
// element and assert the budget on each operation.
#pragma once

#include <cassert>
#include <cstdint>

#include "src/crypto/modarith.h"
#include "src/crypto/u256.h"

namespace daric::crypto {

namespace detail {
// p and 2^256 mod p in the generic 4×64 form: the reference arithmetic the
// differential tests and the seed-faithful benchmark baseline run on.
inline constexpr modarith::Params kFieldParams{
    .m = U256{0xfffffffefffffc2f, 0xffffffffffffffff, 0xffffffffffffffff, 0xffffffffffffffff},
    .c = U256{0x1000003d1, 0, 0, 0},
};
}  // namespace detail

/// Canonical 32-byte packing of a field element, for large precomputed
/// tables (the 5×52 form needs 40 bytes).
struct FeStorage {
  std::uint64_t limb[4];  // little-endian, value < p
};

class Fe {
 public:
  /// Largest input magnitude `*` and `sqr()` accept.
  static constexpr int kMaxMulMagnitude = 8;
  /// Largest magnitude any element may reach (limbs stay below 2^58).
  static constexpr int kMaxMagnitude = 32;

  Fe() = default;  // zero
  explicit Fe(std::uint64_t v) : n_{v & kM52, v >> 52, 0, 0, 0} {
#ifndef NDEBUG
    mag_ = 1;
#endif
  }
  /// Value must already be < p (checked).
  static Fe from_u256(const U256& v);
  /// Interprets 32 big-endian bytes, reducing mod p.
  static Fe from_be_bytes_reduce(BytesView b);
  static Fe from_storage(const FeStorage& s) {
    Fe r = unpack(s.limb);
#ifndef NDEBUG
    r.norm_ = true;
    r.check();
#endif
    return r;
  }

  static const U256& modulus() { return detail::kFieldParams.m; }

  Fe operator+(const Fe& o) const {
    Fe r;
    for (int i = 0; i < 5; ++i) r.n_[i] = n_[i] + o.n_[i];
#ifndef NDEBUG
    r.mag_ = mag_ + o.mag_;
    r.norm_ = false;
    r.check();
#endif
    return r;
  }
  /// Any operands; result magnitude is this one's plus 2.
  Fe operator-(const Fe& o) const { return *this + o.neg(); }
  /// −a for an element of magnitude ≤ m; the result has magnitude m + 1.
  Fe neg(int m) const {
#ifndef NDEBUG
    assert(mag_ <= m);
#endif
    const auto k = static_cast<std::uint64_t>(2 * (m + 1));
    Fe r;
    r.n_[0] = kP0 * k - n_[0];
    r.n_[1] = kM52 * k - n_[1];
    r.n_[2] = kM52 * k - n_[2];
    r.n_[3] = kM52 * k - n_[3];
    r.n_[4] = kM48 * k - n_[4];
#ifndef NDEBUG
    r.mag_ = m + 1;
    r.norm_ = false;
    r.check();
#endif
    return r;
  }
  /// −a for an element of any magnitude; the result has magnitude 2.
  Fe neg() const {
    Fe t = *this;
    t.normalize_weak();
    return t.neg(1);
  }
  /// k·a for a small constant k; magnitude scales by k.
  Fe mul_int(int k) const {
    Fe r;
    for (int i = 0; i < 5; ++i) r.n_[i] = n_[i] * static_cast<std::uint64_t>(k);
#ifndef NDEBUG
    r.mag_ = mag_ * k;
    r.norm_ = false;
    r.check();
#endif
    return r;
  }
  Fe operator*(const Fe& o) const {
#ifndef NDEBUG
    assert(mag_ <= kMaxMulMagnitude && o.mag_ <= kMaxMulMagnitude);
#endif
    Fe r;
    mul_inner(r.n_, n_, o.n_);
#ifndef NDEBUG
    r.mag_ = 1;
    r.norm_ = false;
    r.check();
#endif
    return r;
  }
  /// Dedicated squaring (cheaper than a general multiply).
  Fe sqr() const {
#ifndef NDEBUG
    assert(mag_ <= kMaxMulMagnitude);
#endif
    Fe r;
    sqr_inner(r.n_, n_);
#ifndef NDEBUG
    r.mag_ = 1;
    r.norm_ = false;
    r.check();
#endif
    return r;
  }
  Fe inv() const;
  /// Square root (p ≡ 3 mod 4); returns false if *this is not a QR.
  bool sqrt(Fe& out) const;

  /// Reduces to magnitude 1 (not necessarily below p). Branch-free.
  void normalize_weak();
  /// Reduces to the canonical representative below p. Branch-free.
  void normalize();

  bool is_zero() const;
  bool is_odd() const;
  bool operator==(const Fe& o) const;

  /// The canonical value as four 64-bit limbs.
  U256 to_u256() const;
  Bytes to_be_bytes() const { return to_u256().to_be_bytes(); }
  FeStorage to_storage() const {
    const U256 v = to_u256();
    return {{v.limb[0], v.limb[1], v.limb[2], v.limb[3]}};
  }

 private:
  static constexpr std::uint64_t kM52 = 0xFFFFFFFFFFFFFULL;
  static constexpr std::uint64_t kM48 = 0xFFFFFFFFFFFFULL;
  static constexpr std::uint64_t kP0 = 0xFFFFEFFFFFC2FULL;  // low limb of p
  // 2^260 mod p = (2^256 mod p)·2^4: folds limb weight 5 back onto weight 0.
  static constexpr std::uint64_t kR = 0x1000003D10ULL;

  // Splits four 64-bit limbs into five 52-bit ones: magnitude 1, but not
  // necessarily below p.
  static Fe unpack(const std::uint64_t* l) {
    Fe r;
    r.n_[0] = l[0] & kM52;
    r.n_[1] = (l[0] >> 52 | l[1] << 12) & kM52;
    r.n_[2] = (l[1] >> 40 | l[2] << 24) & kM52;
    r.n_[3] = (l[2] >> 28 | l[3] << 36) & kM52;
    r.n_[4] = l[3] >> 16;
#ifndef NDEBUG
    r.mag_ = 1;
    r.norm_ = false;
#endif
    return r;
  }
  static void mul_inner(std::uint64_t* r, const std::uint64_t* a, const std::uint64_t* b);
  static void sqr_inner(std::uint64_t* r, const std::uint64_t* a);
#ifndef NDEBUG
  void check() const;
#endif

  std::uint64_t n_[5]{};
#ifndef NDEBUG
  int mag_ = 0;
  bool norm_ = true;
#endif
};

// The product kernels are inline: they sit under every point operation.
//
// Both follow the same schedule. Column k of the schoolbook product is
// p_k = Σ_{i+j=k} a_i·b_j at weight 2^(52k); columns 5..8 fold onto 0..3
// through 2^260 ≡ kR. Two 128-bit accumulators run interleaved: d walks the
// high columns 3 → 8 and c the low columns 0 → 4, and each 52-bit slice of
// d is folded (×kR) into c as soon as c reaches the matching low column. The
// 4-bit excess above 2^256 in column 4 is folded with kR >> 4. With inputs of
// magnitude ≤ 8 every limb is < 2^56 (limb 4 < 2^52), each column sum is
// < 2^115 and no accumulator overflows. The result has limbs 0..3 < 2^52 and
// limb 4 < 2^48 + 2^42 — magnitude 1.
inline void Fe::mul_inner(std::uint64_t* r, const std::uint64_t* a, const std::uint64_t* b) {
  using u128 = unsigned __int128;
  const std::uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  // Column 3, plus the low slice of column 8 (8 ≡ 3 after one fold).
  u128 d = static_cast<u128>(a0) * b[3] + static_cast<u128>(a1) * b[2] +
           static_cast<u128>(a2) * b[1] + static_cast<u128>(a3) * b[0];
  u128 c = static_cast<u128>(a4) * b[4];
  d += static_cast<u128>(static_cast<std::uint64_t>(c) & kM52) * kR;
  c >>= 52;
  const std::uint64_t t3 = static_cast<std::uint64_t>(d) & kM52;
  d >>= 52;
  // Column 4, plus the rest of column 8 (now at weight 9 ≡ 4).
  d += static_cast<u128>(a0) * b[4] + static_cast<u128>(a1) * b[3] +
       static_cast<u128>(a2) * b[2] + static_cast<u128>(a3) * b[1] +
       static_cast<u128>(a4) * b[0];
  d += c * kR;
  std::uint64_t t4 = static_cast<std::uint64_t>(d) & kM52;
  d >>= 52;
  const std::uint64_t tx = t4 >> 48;  // bits 256..259
  t4 &= kM48;
  // Column 0, plus column 5 with tx prepended (weight 2^256 ≡ kR >> 4).
  c = static_cast<u128>(a0) * b[0];
  d += static_cast<u128>(a1) * b[4] + static_cast<u128>(a2) * b[3] +
       static_cast<u128>(a3) * b[2] + static_cast<u128>(a4) * b[1];
  const std::uint64_t u0 = (static_cast<std::uint64_t>(d) & kM52) << 4 | tx;
  d >>= 52;
  c += static_cast<u128>(u0) * (kR >> 4);
  r[0] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  // Column 1, plus column 6.
  c += static_cast<u128>(a0) * b[1] + static_cast<u128>(a1) * b[0];
  d += static_cast<u128>(a2) * b[4] + static_cast<u128>(a3) * b[3] +
       static_cast<u128>(a4) * b[2];
  c += static_cast<u128>(static_cast<std::uint64_t>(d) & kM52) * kR;
  d >>= 52;
  r[1] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  // Column 2, plus column 7.
  c += static_cast<u128>(a0) * b[2] + static_cast<u128>(a1) * b[1] +
       static_cast<u128>(a2) * b[0];
  d += static_cast<u128>(a3) * b[4] + static_cast<u128>(a4) * b[3];
  c += static_cast<u128>(static_cast<std::uint64_t>(d) & kM52) * kR;
  d >>= 52;
  r[2] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  // Column 3 saved above, plus what is left of d (weight 8 ≡ 3).
  c += d * kR + t3;
  r[3] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  r[4] = static_cast<std::uint64_t>(c) + t4;
}

// mul_inner with a == b: the cross products a_i·a_j (i ≠ j) are computed
// once against a pre-doubled limb.
inline void Fe::sqr_inner(std::uint64_t* r, const std::uint64_t* a) {
  using u128 = unsigned __int128;
  std::uint64_t a0 = a[0], a4 = a[4];
  const std::uint64_t a1 = a[1], a2 = a[2], a3 = a[3];
  u128 d = static_cast<u128>(a0 * 2) * a3 + static_cast<u128>(a1 * 2) * a2;
  u128 c = static_cast<u128>(a4) * a4;
  d += static_cast<u128>(static_cast<std::uint64_t>(c) & kM52) * kR;
  c >>= 52;
  const std::uint64_t t3 = static_cast<std::uint64_t>(d) & kM52;
  d >>= 52;
  a4 *= 2;
  d += static_cast<u128>(a0) * a4 + static_cast<u128>(a1 * 2) * a3 + static_cast<u128>(a2) * a2;
  d += c * kR;
  std::uint64_t t4 = static_cast<std::uint64_t>(d) & kM52;
  d >>= 52;
  const std::uint64_t tx = t4 >> 48;
  t4 &= kM48;
  c = static_cast<u128>(a0) * a0;
  d += static_cast<u128>(a1) * a4 + static_cast<u128>(a2 * 2) * a3;
  const std::uint64_t u0 = (static_cast<std::uint64_t>(d) & kM52) << 4 | tx;
  d >>= 52;
  c += static_cast<u128>(u0) * (kR >> 4);
  r[0] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  a0 *= 2;
  c += static_cast<u128>(a0) * a1;
  d += static_cast<u128>(a2) * a4 + static_cast<u128>(a3) * a3;
  c += static_cast<u128>(static_cast<std::uint64_t>(d) & kM52) * kR;
  d >>= 52;
  r[1] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  c += static_cast<u128>(a0) * a2 + static_cast<u128>(a1) * a1;
  d += static_cast<u128>(a3) * a4;
  c += static_cast<u128>(static_cast<std::uint64_t>(d) & kM52) * kR;
  d >>= 52;
  r[2] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  c += d * kR + t3;
  r[3] = static_cast<std::uint64_t>(c) & kM52;
  c >>= 52;
  r[4] = static_cast<std::uint64_t>(c) + t4;
}

}  // namespace daric::crypto
