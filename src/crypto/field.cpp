#include "src/crypto/field.h"

#include <stdexcept>

#include "src/crypto/modinv.h"

namespace daric::crypto {

Fe Fe::from_u256(const U256& v) {
  if (v >= modulus()) throw std::invalid_argument("Fe out of range");
  return from_storage({{v.limb[0], v.limb[1], v.limb[2], v.limb[3]}});
}

Fe Fe::from_be_bytes_reduce(BytesView b) {
  const U256 v = U256::from_be_bytes(b);
  // Any 256-bit value unpacks to magnitude 1; normalize() subtracts p once
  // if the value was in [p, 2^256).
  Fe f = unpack(v.limb.data());
  f.normalize();
  return f;
}

void Fe::normalize_weak() {
  std::uint64_t t0 = n_[0], t1 = n_[1], t2 = n_[2], t3 = n_[3], t4 = n_[4];
  // Fold the bits above 2^256 (2^256 ≡ 2^32 + 977), then carry once.
  const std::uint64_t x = t4 >> 48;
  t4 &= kM48;
  t0 += x * 0x1000003D1ULL;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  n_[0] = t0;
  n_[1] = t1;
  n_[2] = t2;
  n_[3] = t3;
  n_[4] = t4;
#ifndef NDEBUG
  mag_ = 1;
  check();
#endif
}

void Fe::normalize() {
  normalize_weak();
  std::uint64_t t0 = n_[0], t1 = n_[1], t2 = n_[2], t3 = n_[3], t4 = n_[4];
  // Now value < 2^256 + 2^214, so at most one subtraction of p remains: it
  // is due when bit 256 is set or the value lies in [p, 2^256). Subtracting
  // p is adding 2^32 + 977 and dropping bit 256; both are done
  // unconditionally with a 0/1 multiplier, so the running time does not
  // depend on the value.
  const std::uint64_t mid = t1 & t2 & t3;
  const std::uint64_t x = (t4 >> 48) | (static_cast<std::uint64_t>(t4 == kM48) &
                                        static_cast<std::uint64_t>(mid == kM52) &
                                        static_cast<std::uint64_t>(t0 >= kP0));
  t0 += x * 0x1000003D1ULL;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  t4 &= kM48;
  n_[0] = t0;
  n_[1] = t1;
  n_[2] = t2;
  n_[3] = t3;
  n_[4] = t4;
#ifndef NDEBUG
  norm_ = true;
  check();
#endif
}

bool Fe::is_zero() const {
  Fe t = *this;
  t.normalize();
  return (t.n_[0] | t.n_[1] | t.n_[2] | t.n_[3] | t.n_[4]) == 0;
}

bool Fe::is_odd() const {
  Fe t = *this;
  t.normalize();
  return t.n_[0] & 1;
}

bool Fe::operator==(const Fe& o) const {
  Fe a = *this, b = o;
  a.normalize();
  b.normalize();
  std::uint64_t diff = 0;
  for (int i = 0; i < 5; ++i) diff |= a.n_[i] ^ b.n_[i];
  return diff == 0;
}

U256 Fe::to_u256() const {
  Fe t = *this;
  t.normalize();
  const std::uint64_t* n = t.n_;
  return {n[0] | n[1] << 52, n[1] >> 12 | n[2] << 40, n[2] >> 24 | n[3] << 28,
          n[3] >> 36 | n[4] << 16};
}

#ifndef NDEBUG
void Fe::check() const {
  assert(mag_ >= 0 && mag_ <= kMaxMagnitude);
  const auto m2 = static_cast<std::uint64_t>(2 * mag_);
  for (int i = 0; i < 4; ++i) assert(n_[i] <= m2 * kM52);
  assert(n_[4] <= m2 * kM48);
  if (norm_) {
    assert(mag_ <= 1);
    for (int i = 0; i < 4; ++i) assert(n_[i] <= kM52);
    assert(n_[4] <= kM48);
    // Below p: p's limbs are kP0, kM52 ×3, kM48.
    const bool all_top = n_[4] == kM48 && (n_[1] & n_[2] & n_[3]) == kM52;
    assert(!(all_top && n_[0] >= kP0));
  }
}
#endif

namespace {

Fe sqr_n(Fe x, int n) {
  for (int i = 0; i < n; ++i) x = x.sqr();
  return x;
}

}  // namespace

Fe Fe::inv() const {
  // Bernstein–Yang safegcd on the canonical value (see modinv.h): a fixed
  // sequence of 590 masked divsteps, so the running time does not depend on
  // the value and secret-derived inputs such as nonce-point Z coordinates
  // are safe.
  static constexpr modinv::ModInfo kInfo = modinv::make_modinfo(detail::kFieldParams.m);
  if (is_zero()) throw std::domain_error("Fe inverse of zero");
  const U256 r = modinv::inverse(to_u256(), kInfo);
  return from_storage({{r.limb[0], r.limb[1], r.limb[2], r.limb[3]}});
}

bool Fe::sqrt(Fe& out) const {
  // p ≡ 3 (mod 4): candidate = a^((p+1)/4). The exponent's binary expansion
  // is three blocks of ones with lengths {2, 22, 223} separated by zeros, so
  // an addition chain over block values x_k = a^(2^k − 1) evaluates it in
  // 253 squarings + 13 multiplications instead of the ~500 operations of a
  // generic square-and-multiply. Compressed-point parses (public keys,
  // batch-verified R values) take a square root.
  const Fe& x = *this;
  const Fe x2 = x.sqr() * x;
  const Fe x3 = x2.sqr() * x;
  const Fe x6 = sqr_n(x3, 3) * x3;
  const Fe x9 = sqr_n(x6, 3) * x3;
  const Fe x11 = sqr_n(x9, 2) * x2;
  const Fe x22 = sqr_n(x11, 11) * x11;
  const Fe x44 = sqr_n(x22, 22) * x22;
  const Fe x88 = sqr_n(x44, 44) * x44;
  const Fe x176 = sqr_n(x88, 88) * x88;
  const Fe x220 = sqr_n(x176, 44) * x44;
  const Fe x223 = sqr_n(x220, 3) * x3;
  Fe t = sqr_n(x223, 23) * x22;
  t = sqr_n(t, 6) * x2;
  const Fe cand = sqr_n(t, 2);
  if (cand.sqr() == *this) {
    out = cand;
    return true;
  }
  return false;
}

}  // namespace daric::crypto
