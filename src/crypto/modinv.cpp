#include "src/crypto/modinv.h"

namespace daric::crypto::modinv {

namespace {

using i128 = __int128;

constexpr std::uint64_t kM62 = ~std::uint64_t{0} >> 2;

// 2×2 transition matrix of a batch of divsteps, scaled by 2^62.
struct Trans {
  std::int64_t u, v, q, r;
};

// 59 divsteps on the low 64 bits of (f, g), starting from zeta =
// −(delta + 1/2). Returns the new zeta and the matrix t with
// t·[f, g] = 2^62·[f′, g′]. The matrix starts at 8·I (2^3), so 59 doublings
// scale it to 2^62. u, v, q, r are signed values in [−2^62, 2^62] kept as
// unsigned words so the left shifts are defined.
std::int64_t divsteps_59(std::int64_t zeta, std::uint64_t f0, std::uint64_t g0, Trans& t) {
  std::uint64_t u = 8, v = 0, q = 0, r = 8;
  std::uint64_t f = f0, g = g0;
  for (int i = 3; i < 62; ++i) {
    // mask1: zeta < 0 (i.e. delta > 0); mask2: g odd.
    std::uint64_t mask1 = static_cast<std::uint64_t>(zeta >> 63);
    const std::uint64_t mask2 = -(g & 1);
    // Conditionally negated copies of f, u, v ...
    const std::uint64_t x = (f ^ mask1) - mask1;
    const std::uint64_t y = (u ^ mask1) - mask1;
    const std::uint64_t z = (v ^ mask1) - mask1;
    // ... added to g, q, r when g is odd.
    g += x & mask2;
    q += y & mask2;
    r += z & mask2;
    // When both held, swap roles: zeta → −zeta − 2 and f, u, v += the new
    // g, q, r (which sets f to the old g); otherwise zeta → zeta − 1.
    mask1 &= mask2;
    zeta = (zeta ^ static_cast<std::int64_t>(mask1)) - 1;
    f += g & mask1;
    u += q & mask1;
    v += r & mask1;
    g >>= 1;
    u <<= 1;
    v <<= 1;
  }
  t = {static_cast<std::int64_t>(u), static_cast<std::int64_t>(v), static_cast<std::int64_t>(q),
       static_cast<std::int64_t>(r)};
  return zeta;
}

// [d, e] ← (t·[d, e] + m·[md, me]) / 2^62, with md, me chosen to make the
// division exact. d, e stay in (−2m, m).
void update_de(Signed62& d, Signed62& e, const Trans& t, const ModInfo& info) {
  const std::int64_t* m = info.modulus.v;
  const std::int64_t sd = d.v[4] >> 63, se = e.v[4] >> 63;
  // Start md, me at [u, q] if d < 0 plus [v, r] if e < 0, which keeps the
  // results in range; the low-bit correction below then adjusts them.
  std::int64_t md = (t.u & sd) + (t.v & se);
  std::int64_t me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d.v[0] + static_cast<i128>(t.v) * e.v[0];
  i128 ce = static_cast<i128>(t.q) * d.v[0] + static_cast<i128>(t.r) * e.v[0];
  md -= static_cast<std::int64_t>(
      (info.modulus_inv62 * static_cast<std::uint64_t>(cd) + static_cast<std::uint64_t>(md)) & kM62);
  me -= static_cast<std::int64_t>(
      (info.modulus_inv62 * static_cast<std::uint64_t>(ce) + static_cast<std::uint64_t>(me)) & kM62);
  cd += static_cast<i128>(m[0]) * md;
  ce += static_cast<i128>(m[0]) * me;
  cd >>= 62;  // the low 62 bits are now zero
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<i128>(t.u) * d.v[i] + static_cast<i128>(t.v) * e.v[i] +
          static_cast<i128>(m[i]) * md;
    ce += static_cast<i128>(t.q) * d.v[i] + static_cast<i128>(t.r) * e.v[i] +
          static_cast<i128>(m[i]) * me;
    d.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kM62);
    e.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

// [f, g] ← t·[f, g] / 2^62 (exact by construction of t).
void update_fg(Signed62& f, Signed62& g, const Trans& t) {
  i128 cf = static_cast<i128>(t.u) * f.v[0] + static_cast<i128>(t.v) * g.v[0];
  i128 cg = static_cast<i128>(t.q) * f.v[0] + static_cast<i128>(t.r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < 5; ++i) {
    cf += static_cast<i128>(t.u) * f.v[i] + static_cast<i128>(t.v) * g.v[i];
    cg += static_cast<i128>(t.q) * f.v[i] + static_cast<i128>(t.r) * g.v[i];
    f.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cf) & kM62);
    g.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = static_cast<std::int64_t>(cf);
  g.v[4] = static_cast<std::int64_t>(cg);
}

// Adds m to r when its top limb is negative. Limbs 0..3 must be in
// [0, 2^62), so the top limb carries the sign of the value.
void add_modulus_if_negative(std::int64_t* r, const ModInfo& info) {
  const std::int64_t mask = r[4] >> 63;
  for (int i = 0; i < 5; ++i) r[i] += info.modulus.v[i] & mask;
}

// Carries limbs 0..3 into [0, 2^62); the top limb keeps the sign.
void carry(std::int64_t* r) {
  for (int i = 0; i < 4; ++i) {
    r[i + 1] += r[i] >> 62;
    r[i] &= static_cast<std::int64_t>(kM62);
  }
}

// Maps d from (−2m, m) to [0, m), negating it when f ended at −1.
U256 normalize(Signed62 d, std::int64_t f_top, const ModInfo& info) {
  std::int64_t* r = d.v;
  add_modulus_if_negative(r, info);  // (−m, m)
  const std::int64_t neg = f_top >> 63;
  for (int i = 0; i < 5; ++i) r[i] = (r[i] ^ neg) - neg;
  carry(r);
  add_modulus_if_negative(r, info);  // [0, m)
  carry(r);
  const auto l = [&](int i) { return static_cast<std::uint64_t>(r[i]); };
  return {l(0) | l(1) << 62, l(1) >> 2 | l(2) << 60, l(2) >> 4 | l(3) << 58, l(3) >> 6 | l(4) << 56};
}

}  // namespace

U256 inverse(const U256& x, const ModInfo& info) {
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = info.modulus;
  Signed62 g = to_signed62(x);
  std::int64_t zeta = -1;  // delta = 1/2
  // 10 × 59 = 590 divsteps: g reaches 0 for every 256-bit input, leaving
  // f = ±gcd = ±1 and d = ±x⁻¹ (mod m).
  for (int i = 0; i < 10; ++i) {
    Trans t;
    zeta = divsteps_59(zeta, static_cast<std::uint64_t>(f.v[0]), static_cast<std::uint64_t>(g.v[0]), t);
    update_de(d, e, t, info);
    update_fg(f, g, t);
  }
  return normalize(d, f.v[4], info);
}

}  // namespace daric::crypto::modinv
