#include "src/crypto/point.h"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace daric::crypto {

namespace {

// Internal Jacobian representation: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
//
// Field magnitudes (see field.h) are budgeted per formula rather than reduced
// after every operation. A Jac produced by any function below has
// x ≤ 6, y ≤ 4, z ≤ 2; jac_dbl and jac_add accept coordinates up to
// Fe::kMaxMulMagnitude, jac_add_aff needs x ≤ 6, y ≤ 4 on the Jacobian side.
struct Jac {
  Fe x{}, y{}, z{};
  bool infinity = true;
};

// Affine point, possibly expressed in an isomorphic frame (see the
// effective-affine table builder below). Table entries have magnitude 1;
// a looked-up (possibly negated) entry has x ≤ 1, y ≤ 2.
struct AffGe {
  Fe x{}, y{};
};

// Packed table entry: canonical 32-byte coordinates, unpacked on lookup, so
// the large precomputed tables keep the size they had with 4×64-bit limbs.
struct GeStorage {
  FeStorage x, y;
};

GeStorage pack(const AffGe& g) { return {g.x.to_storage(), g.y.to_storage()}; }
AffGe unpack(const GeStorage& e) { return {Fe::from_storage(e.x), Fe::from_storage(e.y)}; }

Jac to_jac(const Point& p) {
  if (p.is_infinity()) return {};
  return {p.x(), p.y(), Fe(1), false};
}

Jac jac_dbl(const Jac& p) {
  // secp256k1 has prime order, so no point has y = 0 and doubling never
  // lands on infinity.
  if (p.infinity) return {};
  // 3M + 4S: X' = m² − 2s, Y' = m·(s − X') − 8y⁴, Z' = 2y·z with s = 4xy²
  // and m = 3x². s − X' is formed directly as 12xy² − m², so X' needs no
  // reduction before the multiply. Magnitudes in brackets.
  const Fe zr = (p.z * p.y).mul_int(2);   // [2]
  const Fe m = p.x.sqr().mul_int(3);      // [3]
  const Fe m2 = m.sqr();                  // [1]
  const Fe y2x2 = p.y.sqr().mul_int(2);   // 2y² [2]
  const Fe y4x8 = y2x2.sqr().mul_int(2);  // 8y⁴ [2]
  const Fe xy2x2 = y2x2 * p.x;            // 2xy² [1]
  const Fe xr = xy2x2.mul_int(4).neg(4) + m2;                      // [6]
  const Fe yr = m * (xy2x2.mul_int(6) + m2.neg(1)) + y4x8.neg(2);  // [4]
  return {xr, yr, zr, false};
}

Jac jac_add(const Jac& p, const Jac& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const Fe z1z1 = p.z.sqr();
  const Fe z2z2 = q.z.sqr();
  const Fe u1 = p.x * z2z2;
  const Fe u2 = q.x * z1z1;
  const Fe s1 = p.y * z2z2 * q.z;
  const Fe s2 = q.y * z1z1 * p.z;
  const Fe h = u2 + u1.neg(1);  // [3]
  const Fe r = s2 + s1.neg(1);  // [3]
  if (h.is_zero()) {
    if (r.is_zero()) return jac_dbl(p);
    return {};  // p == -q
  }
  const Fe hh = h.sqr();
  const Fe hhh = h * hh;
  const Fe v = u1 * hh;
  const Fe xr = r.sqr() + hhh.neg(1) + v.mul_int(2).neg(2);  // [6]
  const Fe yr = r * (v + xr.neg(6)) + (s1 * hhh).neg(1);    // [3]
  const Fe zr = p.z * q.z * h;
  return {xr, yr, zr, false};
}

// Mixed addition p + q with q affine (8M + 3S instead of 12M + 4S). When
// `zr` is non-null it receives the ratio new_z / old_z (magnitude 8; used by
// the effective-affine table builder); p must not be infinity in that case.
// q's coordinates may have magnitude up to x ≤ 6, y ≤ 4.
Jac jac_add_aff(const Jac& p, const AffGe& q, Fe* zr = nullptr) {
  if (p.infinity) return {q.x, q.y, Fe(1), false};
  const Fe z1z1 = p.z.sqr();
  const Fe u2 = q.x * z1z1;
  const Fe s2 = q.y * z1z1 * p.z;
  const Fe h = u2 + p.x.neg(6);  // [8]
  const Fe r = s2 + p.y.neg(4);  // [6]
  if (h.is_zero()) {
    if (r.is_zero()) return jac_dbl(p);
    return {};  // p == -q
  }
  const Fe hh = h.sqr();
  const Fe hhh = h * hh;
  const Fe v = p.x * hh;
  const Fe xr = r.sqr() + hhh.neg(1) + v.mul_int(2).neg(2);  // [6]
  const Fe yr = r * (v + xr.neg(6)) + (p.y * hhh).neg(1);   // [3]
  if (zr) *zr = h;
  return {xr, yr, p.z * h, false};
}

Point from_jac(const Jac& p) {
  if (p.infinity) return Point();
  const Fe zi = p.z.inv();
  const Fe zi2 = zi.sqr();
  return Point::from_affine(p.x * zi2, p.y * zi2 * zi);
}

bool on_curve(const Fe& x, const Fe& y) { return y.sqr() == x.sqr() * x + Fe(7); }

// vartime: begin (verification-side scalar-multiplication machinery; every
// scalar reaching this code is public — signature s values and challenge
// hashes — so data-dependent timing leaks nothing)

// --- wNAF ------------------------------------------------------------------

// Width-w NAF digit capacity: 256 bits plus one possible carry digit. The
// GLV/generator half-scalars only need ~130 digits, but sizing every buffer
// for the worst case keeps the code uniform (stack space is cheap).
constexpr int kMaxNafLen = 257;

// Fixed-base split: a precomputed verification walks every scalar in
// kChunkBits-bit chunks, chunk j against a table of 2^(kChunkBits·j) times
// its base, so the shared doubling chain is one chunk long (~128/kChunks
// doublings instead of ~130). kChunks·kChunkBits = 128 — the length of a
// GLV half — so a 256-bit generator scalar is exactly 2·kChunks chunks, and
// the chunk tables j = 0 and j = kChunks double as the 128-bit-halves
// tables of the variable-point ladder. Chosen by measurement (DESIGN.md →
// "Crypto hot path").
constexpr int kChunks = 4;
constexpr unsigned kChunkBits = 128 / kChunks;
constexpr std::uint64_t kChunkMask =
    kChunkBits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << kChunkBits) - 1;
// A chunk fits in 64 bits, so its wNAF has at most 65 digits.
constexpr int kChunkNafLen = 65;

// Window sizes: 5 for variable points (8-entry table built per call) and
// for precomputed points (kChunks tables of 8 entries and their phi images,
// built once per key: a wider window saves a few additions per verify but
// doubles the build, which every channel open pays six times), 11 for the
// generator (2·kChunks tables of 512 entries built once per process). A
// width-w NAF has odd digits |d| <= 2^(w-1) - 1, so a table holds 2^(w-2)
// entries.
constexpr unsigned kWnafWindowP = 5;
constexpr unsigned kWnafWindowPre = 5;
constexpr unsigned kWnafWindowG = 11;
constexpr int kTableSizeP = 1 << (kWnafWindowP - 2);      // odd multiples 1..15
constexpr int kTableSizePre = 1 << (kWnafWindowPre - 2);  // odd multiples 1..15
constexpr int kTableSizeG = 1 << (kWnafWindowG - 2);      // odd multiples 1..1023

// Computes the width-w NAF of k: k = Σ naf[i]·2^i with every nonzero digit
// odd and |digit| < 2^(w-1), at most one nonzero in any w consecutive
// positions. Returns the digit count.
int wnaf(std::int16_t* naf, U256 k, unsigned w) {
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  int len = 0;
  while (!k.is_zero()) {
    std::int64_t d = 0;
    if (k.is_odd()) {
      d = static_cast<std::int64_t>(k.limb[0] & mask);
      if (d > std::int64_t{1} << (w - 1)) d -= std::int64_t{1} << w;
      if (d >= 0)
        sub_with_borrow(k, U256(static_cast<std::uint64_t>(d)), k);
      else
        add_with_carry(k, U256(static_cast<std::uint64_t>(-d)), k);
    }
    naf[len++] = static_cast<std::int16_t>(d);
    k = shr(k, 1);
  }
  return len;
}

// The same recoding for a 64-bit chunk, read window by window with a carry
// instead of subtracting digits from k: naf[0..kChunkNafLen) must be zero on
// entry. A run of bits equal to the carry yields zero digits and is skipped
// in one step; the carry out of the top window lands at position 64 at most.
int wnaf64(std::int16_t* naf, std::uint64_t k, unsigned w) {
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  int len = 0;
  unsigned bit = 0;
  unsigned carry = 0;
  for (;;) {
    const std::uint64_t rest = bit < 64 ? k >> bit : 0;
    if (carry == 0) {
      if (rest == 0) break;
      bit += static_cast<unsigned>(std::countr_zero(rest));
    } else {
      bit += static_cast<unsigned>(std::countr_one(rest));
    }
    int word = static_cast<int>(bit < 64 ? (k >> bit) & mask : 0) + static_cast<int>(carry);
    carry = static_cast<unsigned>(word >> (w - 1)) & 1;
    word -= static_cast<int>(carry << w);
    naf[bit] = static_cast<std::int16_t>(word);
    len = static_cast<int>(bit) + 1;
    bit += w;
  }
  return len;
}

// Table lookup for wNAF digit d (odd, nonzero): entry (|d|-1)/2, negated
// for negative digits.
AffGe wnaf_lookup(const AffGe* table, int digit) {
  AffGe g = table[(digit > 0 ? digit : -digit) >> 1];
  if (digit < 0) g.y = g.y.neg(1);
  return g;
}

AffGe wnaf_lookup(const GeStorage* table, int digit) {
  AffGe g = unpack(table[(digit > 0 ? digit : -digit) >> 1]);
  if (digit < 0) g.y = g.y.neg(1);
  return g;
}

// --- GLV endomorphism -------------------------------------------------------

// secp256k1 has an efficient endomorphism phi(x, y) = (beta·x, y) acting as
// multiplication by lambda (lambda³ = 1 mod n, beta³ = 1 mod p). Splitting a
// 256-bit scalar k into k = k1 + k2·lambda with |k1|, |k2| ~ 2^128 halves
// the shared doubling chain: k·P = k1·P + k2·phi(P), and phi(P)'s table is a
// one-multiplication-per-entry transform of P's table.

const Fe& glv_beta() {
  static const Fe beta = Fe::from_u256(U256::from_hex(
      "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee"));
  return beta;
}

struct GlvSplit {
  U256 k1{}, k2{};       // magnitudes, < ~2^128
  bool neg1 = false, neg2 = false;  // signs of the k1·P / k2·phi(P) terms
};

// round((k·g) / 2^shift) for 256 < shift < 512: the product's bits from
// `shift` up, plus the rounding bit just below the cut.
U256 mul_shift_var(const U256& k, const U256& g, unsigned shift) {
  const U512 prod = mul_full(k, g);
  const unsigned l = shift / 64;
  const unsigned s = shift % 64;
  U256 r;
  for (unsigned i = 0; i < 4 && i + l < 8; ++i) {
    std::uint64_t v = prod.limb[i + l] >> s;
    if (s != 0 && i + l + 1 < 8) v |= prod.limb[i + l + 1] << (64 - s);
    r.limb[i] = v;
  }
  if (prod.limb[(shift - 1) / 64] >> ((shift - 1) % 64) & 1) {
    U256 t;
    add_with_carry(r, U256(1), t);
    r = t;
  }
  return r;
}

// Lattice-basis scalar decomposition (the constants are the standard secp256k1
// values: (a1, b1), (a2, b2) span the lattice of pairs with a + b·lambda = 0
// mod n, and g1, g2 are the precomputed rounded quotients 2^272·b2/n and
// 2^272·(-b1)/n for Babai rounding at shift 272).
GlvSplit glv_split(const Scalar& k) {
  static const U256 g1 = U256::from_hex("3086d221a7d46bcde86c90e49284eb153dab");
  static const U256 g2 = U256::from_hex("e4437ed6010e88286f547fa90abfe4c42212");
  static const Scalar minus_b1 =
      Scalar::from_u256(U256::from_hex("e4437ed6010e88286f547fa90abfe4c3"));
  static const Scalar minus_b2 = Scalar::from_u256(U256::from_hex(
      "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c"));
  static const Scalar lambda = Scalar::from_u256(U256::from_hex(
      "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72"));
  const Scalar c1 = Scalar::from_u256(mul_shift_var(k.raw(), g1, 272)) * minus_b1;
  const Scalar c2 = Scalar::from_u256(mul_shift_var(k.raw(), g2, 272)) * minus_b2;
  const Scalar r2 = c1 + c2;
  const Scalar r1 = k - r2 * lambda;  // k = r1 + r2·lambda (mod n) by construction
  const U256 half_n = shr(Scalar::order(), 1);
  GlvSplit out;
  out.neg1 = r1.raw() > half_n;
  out.k1 = out.neg1 ? r1.neg().raw() : r1.raw();
  out.neg2 = r2.raw() > half_n;
  out.k2 = out.neg2 ? r2.neg().raw() : r2.raw();
  return out;
}

// wNAF of a GLV half-scalar with the term's sign folded into the digits.
int signed_wnaf(std::int16_t* naf, const U256& k, bool negative, unsigned w) {
  const int len = wnaf(naf, k, w);
  if (negative)
    for (int i = 0; i < len; ++i) naf[i] = static_cast<std::int16_t>(-naf[i]);
  return len;
}

// --- Effective-affine odd-multiples table -----------------------------------

// Fills table[0..N) with {1,3,...,2N-1}·base expressed as *affine* points of
// an isomorphic frame sharing a single global Z (returned), using one
// doubling, N-1 mixed additions and a few multiplications per entry — and no
// field inversion (libsecp256k1's "effective affine" trick). A Jacobian
// result accumulated against these entries is mapped back to the true curve
// by multiplying its Z by the returned global Z; dividing an entry's x by Z²
// and y by Z³ gives its true affine coordinates. `base` must not be infinity.
template <int N>
Fe effective_affine_table(AffGe* table, const Jac& base) {
  const Jac d = jac_dbl(base);  // 2·base; never infinity
  // Rescale base into the frame where d is affine: x·dz², y·dz³.
  const Fe dz2 = d.z.sqr();
  const Fe dz3 = dz2 * d.z;
  const AffGe d_aff{d.x, d.y};
  std::array<Jac, N> entry;
  std::array<Fe, N> zr;
  entry[0] = {base.x * dz2, base.y * dz3, base.z, false};
  zr[0] = Fe(1);
  for (int i = 1; i < N; ++i) entry[i] = jac_add_aff(entry[i - 1], d_aff, &zr[i]);
  // Backward pass: express entry i as affine w.r.t. the last entry's Z by
  // accumulating the stored Z ratios — multiplications only.
  const int last = N - 1;
  table[last] = {entry[last].x, entry[last].y};
  table[last].x.normalize_weak();
  table[last].y.normalize_weak();
  Fe zs = zr[last];
  for (int i = last - 1; i >= 0; --i) {
    const Fe zs2 = zs.sqr();
    table[i] = {entry[i].x * zs2, entry[i].y * zs2 * zs};
    zs = zs * zr[i];
  }
  return d.z * entry[last].z;
}

// --- Batched inversion (Montgomery's trick) ---------------------------------

// Replaces each element with its inverse using a single field inversion.
void batch_inverse(std::vector<Fe>& v) {
  if (v.empty()) return;
  std::vector<Fe> prefix(v.size());
  prefix[0] = v[0];
  for (std::size_t i = 1; i < v.size(); ++i) prefix[i] = prefix[i - 1] * v[i];
  Fe acc = prefix.back().inv();
  for (std::size_t i = v.size(); i-- > 1;) {
    const Fe inv_i = acc * prefix[i - 1];
    acc = acc * v[i];
    v[i] = inv_i;
  }
  v[0] = acc;
}

// --- Fixed-base chunk tables ------------------------------------------------

// The chunk bases 2^(kChunkBits·j)·P for j = 0..n-1: one doubling chain.
std::vector<Jac> chunk_bases(const Point& p, int n) {
  std::vector<Jac> bases(static_cast<std::size_t>(n));
  bases[0] = to_jac(p);
  for (std::size_t j = 1; j < bases.size(); ++j) {
    bases[j] = bases[j - 1];
    for (unsigned i = 0; i < kChunkBits; ++i) bases[j] = jac_dbl(bases[j]);
  }
  return bases;
}

// Fills tables[j] with the odd multiples {1,3,...,2N-1}·bases[j] in true
// affine coordinates: one effective-affine chain per base, then a single
// batched inversion of the frames' Zs across all of them. When `phi` is
// non-null, phi[j] receives the beta images of tables[j] (the GLV lambda
// streams).
template <int N>
void build_chunk_tables(const std::vector<Jac>& bases, GeStorage (*tables)[N],
                        GeStorage (*phi)[N]) {
  std::vector<std::array<AffGe, N>> frames(bases.size());
  std::vector<Fe> zs(bases.size());
  for (std::size_t j = 0; j < bases.size(); ++j)
    zs[j] = effective_affine_table<N>(frames[j].data(), bases[j]);
  batch_inverse(zs);
  for (std::size_t j = 0; j < bases.size(); ++j) {
    const Fe zi2 = zs[j].sqr();
    const Fe zi3 = zi2 * zs[j];
    for (int i = 0; i < N; ++i) {
      const AffGe e{frames[j][i].x * zi2, frames[j][i].y * zi3};
      tables[j][i] = pack(e);
      if (phi != nullptr) phi[j][i] = pack({glv_beta() * e.x, e.y});
    }
  }
}

// Odd multiples of 2^(kChunkBits·j)·G for the 2·kChunks chunks of a
// generator scalar, built once per process.
struct GenTables {
  GeStorage t[2 * kChunks][kTableSizeG];
};

const GenTables& gen_wnaf_tables() {
  static GenTables t;
  static std::once_flag once;
  std::call_once(once, [] {
    build_chunk_tables<kTableSizeG>(chunk_bases(Point::generator(), 2 * kChunks), t.t, nullptr);
  });
  return t;
}

// --- Strauss–Shamir interleaved ladder --------------------------------------

// a·P + b·G in Jacobian coordinates (true frame). One shared doubling chain
// of ~130 iterations: the GLV split turns a·P into two half-length streams
// over P's width-5 effective-affine table and its phi-image, and b is split
// bitwise into 128-bit halves over the generator chunk tables of G and
// 2^128·G (rescaled on the fly into P's isomorphic frame).
Jac strauss_jac(const Scalar& a, const Point& p, const Scalar& b) {
  std::int16_t naf_p1[kMaxNafLen], naf_p2[kMaxNafLen];
  std::int16_t naf_g1[kMaxNafLen], naf_g2[kMaxNafLen];
  int len_p1 = 0, len_p2 = 0, len_g1 = 0, len_g2 = 0;
  AffGe ptable[kTableSizeP], ltable[kTableSizeP];
  Fe global_z(1);
  const bool have_p = !p.is_infinity() && !a.is_zero();
  if (have_p) {
    const GlvSplit sp = glv_split(a);
    len_p1 = signed_wnaf(naf_p1, sp.k1, sp.neg1, kWnafWindowP);
    len_p2 = signed_wnaf(naf_p2, sp.k2, sp.neg2, kWnafWindowP);
    global_z = effective_affine_table<kTableSizeP>(ptable, to_jac(p));
    // phi(m·P) = (beta·x, y) commutes with the isomorphic frame's scaling,
    // so the phi table is valid in the same frame.
    const Fe& beta = glv_beta();
    for (int i = 0; i < kTableSizeP; ++i) ltable[i] = {beta * ptable[i].x, ptable[i].y};
  }
  if (!b.is_zero()) {
    const U256& bv = b.raw();
    len_g1 = wnaf(naf_g1, U256{bv.limb[0], bv.limb[1], 0, 0}, kWnafWindowG);
    len_g2 = wnaf(naf_g2, U256{bv.limb[2], bv.limb[3], 0, 0}, kWnafWindowG);
  }
  const GenTables* gt = (len_g1 > 0 || len_g2 > 0) ? &gen_wnaf_tables() : nullptr;
  // G-table entries live on the true curve; when P's table set up an
  // isomorphic frame, rescale each used G entry into that frame.
  Fe gz2(1), gz3(1);
  const bool rescale_g = have_p && gt != nullptr;
  if (rescale_g) {
    gz2 = global_z.sqr();
    gz3 = gz2 * global_z;
  }
  const auto add_gen = [&](Jac acc, const GeStorage* table, int digit) {
    AffGe g = wnaf_lookup(table, digit);
    if (rescale_g) {
      g.x = g.x * gz2;
      g.y = g.y * gz3;
    }
    return jac_add_aff(acc, g);
  };
  Jac acc;
  const int top = std::max(std::max(len_p1, len_p2), std::max(len_g1, len_g2));
  for (int i = top - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (i < len_p1 && naf_p1[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(ptable, naf_p1[i]));
    if (i < len_p2 && naf_p2[i] != 0) acc = jac_add_aff(acc, wnaf_lookup(ltable, naf_p2[i]));
    if (i < len_g1 && naf_g1[i] != 0) acc = add_gen(acc, gt->t[0], naf_g1[i]);
    if (i < len_g2 && naf_g2[i] != 0) acc = add_gen(acc, gt->t[kChunks], naf_g2[i]);
  }
  if (have_p && !acc.infinity) acc.z = acc.z * global_z;
  return acc;
}

// Backing store of a PrecomputedPoint: tab[j] holds the odd multiples of
// 2^(kChunkBits·j)·P and tab[kChunks + j] their phi images, in true affine
// coordinates (so they mix freely with the generator tables).
struct PreTablesData {
  Point p;
  GeStorage tab[2 * kChunks][kTableSizePre];
};

// Bits [lo, lo + 64) of k; bits past 255 read as zero.
std::uint64_t bits64(const U256& k, unsigned lo) {
  const unsigned l = lo / 64;
  const unsigned s = lo % 64;
  std::uint64_t v = k.limb[l] >> s;
  if (s != 0 && l + 1 < 4) v |= k.limb[l + 1] << (64 - s);
  return v;
}

// a·P + b·G over P's precomputed chunk tables: the GLV halves of a are
// walked as kChunks chunks each and b as 2·kChunks chunks, every chunk
// against the table of its own 2^(kChunkBits·j) multiple, so all 4·kChunks
// streams share one doubling chain of ~kChunkBits steps.
Jac strauss_pre_jac(const Scalar& a, const PreTablesData& pt, const Scalar& b) {
  struct Stream {
    const GeStorage* table;
    int len;
    std::int16_t naf[kChunkNafLen];
  };
  Stream streams[4 * kChunks];
  int n = 0;
  int top = 0;
  const auto add_stream = [&](const GeStorage* table, std::uint64_t chunk, unsigned w,
                              bool negative) {
    Stream& s = streams[n];
    std::fill(std::begin(s.naf), std::end(s.naf), std::int16_t{0});
    s.len = wnaf64(s.naf, chunk, w);
    if (s.len == 0) return;
    if (negative)
      for (int i = 0; i < s.len; ++i) s.naf[i] = static_cast<std::int16_t>(-s.naf[i]);
    s.table = table;
    top = std::max(top, s.len);
    ++n;
  };
  if (!a.is_zero()) {
    const GlvSplit sp = glv_split(a);
    // The last chunk carries every bit above (kChunks-1)·kChunkBits. A GLV
    // half is below 0.64·2^128 (DESIGN.md), so it fits in 64 bits.
    constexpr unsigned kLast = (kChunks - 1) * kChunkBits;
    for (unsigned j = 0; j < kChunks; ++j) {
      const unsigned lo = j * kChunkBits;
      const std::uint64_t mask = lo == kLast ? ~std::uint64_t{0} : kChunkMask;
      add_stream(pt.tab[j], bits64(sp.k1, lo) & mask, kWnafWindowPre, sp.neg1);
      add_stream(pt.tab[kChunks + j], bits64(sp.k2, lo) & mask, kWnafWindowPre, sp.neg2);
    }
  }
  if (!b.is_zero()) {
    const GenTables& gt = gen_wnaf_tables();
    for (unsigned j = 0; j < 2 * kChunks; ++j)
      add_stream(gt.t[j], bits64(b.raw(), j * kChunkBits) & kChunkMask, kWnafWindowG, false);
  }
  Jac acc;
  for (int i = top - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    for (int k = 0; k < n; ++k)
      if (i < streams[k].len && streams[k].naf[i] != 0)
        acc = jac_add_aff(acc, wnaf_lookup(streams[k].table, streams[k].naf[i]));
  }
  return acc;
}

// vartime: end

Jac jac_scalar_mul_ladder(const Jac& base, const Scalar& k) {
  Jac acc;
  const U256& bits = k.raw();
  const unsigned n = bits.bit_length();
  for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
    acc = jac_dbl(acc);
    if (bits.bit(static_cast<unsigned>(i))) acc = jac_add(acc, base);
  }
  return acc;
}

// Precomputed 8-bit-window table for k*G: win[w][j-1] = j * 256^w * G, in
// true affine coordinates (one batched inversion normalizes all 32·255
// entries at build time). Signing then needs only 32 mixed additions (8M+3S
// each) and zero doublings. Every window is visited in order regardless of
// k, so the window sequence does not depend on the scalar; as with the old
// 4-bit table, the entry index within a window does (acceptable here — see
// keys.h on the simulation's threat model).
struct GenTable {
  std::array<std::array<GeStorage, 255>, 32> win;
};

const GenTable& gen_table() {
  static GenTable table;
  static std::once_flag once;
  std::call_once(once, [] {
    std::vector<Jac> entries(32 * 255);
    Jac base = to_jac(Point::generator());
    for (int w = 0; w < 32; ++w) {
      Jac acc;
      for (int j = 0; j < 255; ++j) {
        acc = jac_add(acc, base);
        entries[static_cast<std::size_t>(w * 255 + j)] = acc;
      }
      // base <<= 8 bits
      for (int d = 0; d < 8; ++d) base = jac_dbl(base);
    }
    std::vector<Fe> zs(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) zs[i] = entries[i].z;
    batch_inverse(zs);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Fe zi2 = zs[i].sqr();
      table.win[i / 255][i % 255] = pack({entries[i].x * zi2, entries[i].y * zi2 * zs[i]});
    }
  });
  return table;
}

}  // namespace

struct PrecomputedPoint::Impl {
  PreTablesData d;
  std::array<Byte, 33> compressed;
};

PrecomputedPoint::PrecomputedPoint(const Point& p) : impl_(std::make_unique<Impl>()) {
  if (p.is_infinity()) throw std::invalid_argument("PrecomputedPoint of infinity");
  impl_->d.p = p;
  const Bytes enc = p.compressed();
  std::copy(enc.begin(), enc.end(), impl_->compressed.begin());
  build_chunk_tables<kTableSizePre>(chunk_bases(p, kChunks), impl_->d.tab,
                                    impl_->d.tab + kChunks);
}

PrecomputedPoint::~PrecomputedPoint() = default;
PrecomputedPoint::PrecomputedPoint(PrecomputedPoint&&) noexcept = default;
PrecomputedPoint& PrecomputedPoint::operator=(PrecomputedPoint&&) noexcept = default;

const Point& PrecomputedPoint::point() const { return impl_->d.p; }
BytesView PrecomputedPoint::compressed() const { return impl_->compressed; }

Point Point::generator() {
  static const Point g = from_affine(
      Fe::from_u256(U256::from_hex(
          "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")),
      Fe::from_u256(U256::from_hex(
          "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8")));
  return g;
}

Point Point::from_affine(const Fe& x, const Fe& y) {
  if (!on_curve(x, y)) throw std::invalid_argument("point not on curve");
  Point p;
  p.x_ = x;
  p.y_ = y;
  p.x_.normalize();
  p.y_.normalize();
  p.infinity_ = false;
  return p;
}

std::optional<Point> Point::from_compressed(BytesView b) {
  if (b.size() != 33 || (b[0] != 0x02 && b[0] != 0x03)) return std::nullopt;
  U256 xv = U256::from_be_bytes(b.subspan(1));
  if (xv >= Fe::modulus()) return std::nullopt;
  const Fe x = Fe::from_u256(xv);
  Fe y;
  if (!(x.sqr() * x + Fe(7)).sqrt(y)) return std::nullopt;
  if (y.is_odd() != (b[0] == 0x03)) y = y.neg();
  return from_affine(x, y);
}

Point Point::operator+(const Point& o) const { return from_jac(jac_add(to_jac(*this), to_jac(o))); }

Point Point::dbl() const { return from_jac(jac_dbl(to_jac(*this))); }

Point Point::neg() const {
  if (infinity_) return {};
  Point p;
  p.x_ = x_;
  p.y_ = y_.neg(1);
  p.y_.normalize();
  p.infinity_ = false;
  return p;
}

Point Point::operator*(const Scalar& k) const {
  if (infinity_ || k.is_zero()) return {};
  return from_jac(strauss_jac(k, *this, Scalar(0)));
}

Point Point::mul_add_vartime(const Scalar& a, const Point& p, const Scalar& b) {
  return from_jac(strauss_jac(a, p, b));
}

namespace {

// expect == (X/Z², Y/Z³) without computing 1/Z.
bool jac_equals_affine(const Jac& res, const Point& expect) {
  if (res.infinity || expect.is_infinity()) return res.infinity == expect.is_infinity();
  const Fe z2 = res.z.sqr();
  return expect.x() * z2 == res.x && expect.y() * z2 * res.z == res.y;
}

// Shared tail of the mul_add_matches variants: x == X/Z² without 1/Z, then
// the parity of Y/Z³.
bool jac_matches(const Jac& res, const Fe& x, bool y_odd) {
  if (res.infinity) return false;
  const Fe z2 = res.z.sqr();
  if (!(x * z2 == res.x)) return false;
  return (res.y * (z2 * res.z).inv()).is_odd() == y_odd;
}

}  // namespace

bool Point::mul_add_equals_vartime(const Scalar& a, const Point& p, const Scalar& b,
                                   const Point& expect) {
  return jac_equals_affine(strauss_jac(a, p, b), expect);
}

bool Point::mul_add_matches_vartime(const Scalar& a, const Point& p, const Scalar& b, const Fe& x,
                                    bool y_odd) {
  return jac_matches(strauss_jac(a, p, b), x, y_odd);
}

bool Point::mul_add_matches_vartime(const Scalar& a, const PrecomputedPoint& p, const Scalar& b,
                                    const Fe& x, bool y_odd) {
  return jac_matches(strauss_pre_jac(a, p.impl_->d, b), x, y_odd);
}

Point Point::mul_ladder_vartime(const Point& p, const Scalar& k) {
  if (p.is_infinity() || k.is_zero()) return {};
  return from_jac(jac_scalar_mul_ladder(to_jac(p), k));
}

Point Point::mul_gen(const Scalar& k) {
  if (k.is_zero()) return {};
  const GenTable& t = gen_table();
  Jac acc;
  const U256& v = k.raw();
  for (int w = 0; w < 32; ++w) {
    const unsigned byte =
        static_cast<unsigned>(v.limb[static_cast<std::size_t>(w / 8)] >> (w % 8 * 8) & 0xff);
    if (byte != 0)
      acc = jac_add_aff(
          acc, unpack(t.win[static_cast<std::size_t>(w)][static_cast<std::size_t>(byte - 1)]));
  }
  return from_jac(acc);
}

bool Point::operator==(const Point& o) const {
  if (infinity_ || o.infinity_) return infinity_ == o.infinity_;
  return x_ == o.x_ && y_ == o.y_;
}

Bytes Point::compressed() const {
  if (infinity_) throw std::domain_error("cannot encode infinity");
  Bytes out;
  out.reserve(33);
  out.push_back(y_.is_odd() ? 0x03 : 0x02);
  const Bytes xb = x_.to_be_bytes();
  append(out, xb);
  return out;
}

}  // namespace daric::crypto
