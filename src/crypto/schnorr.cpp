#include "src/crypto/schnorr.h"

#include "src/crypto/rfc6979.h"
#include "src/crypto/sha256.h"

namespace daric::crypto {

namespace {

// Constant-tag hashers start from a prefix midstate computed once per
// process: SHA256(tag)||SHA256(tag) is exactly one block, so each copy saves
// the two compressions tagged_init would spend re-hashing the tag.
Scalar challenge(BytesView r_bytes, BytesView pk_bytes, const Hash256& msg) {
  static const Sha256 kPrefix = Sha256::tagged_init("daric/schnorr");
  Sha256 h = kPrefix;
  h.update(r_bytes).update(pk_bytes).update(msg.view());
  return Scalar::from_be_bytes_reduce(h.finalize().view());
}

Bytes sign_with_nonce(const Scalar& k, const Scalar& sk, BytesView pk_bytes, const Hash256& msg) {
  const Bytes r = Point::mul_gen(k).compressed();
  const Scalar e = challenge(r, pk_bytes, msg);
  const Scalar s = k + e * sk;
  return concat({r, s.to_be_bytes()});
}

// The (R, s) wire form with R left as its encoding: the parity its prefix
// byte names and its x-coordinate. R is never lifted to a point — an x with
// no curve point passes here and then fails the verification equation.
struct WireSig {
  Fe rx;
  bool r_odd = false;
  Scalar s;
};

// False on a malformed component: bad size or prefix, x ≥ p, s ≥ n.
bool split_sig(BytesView sig, WireSig& out) {
  if (sig.size() != kSchnorrSigSize || (sig[0] != 0x02 && sig[0] != 0x03)) return false;
  const U256 xv = U256::from_be_bytes(sig.subspan(1, 32));
  const U256 sv = U256::from_be_bytes(sig.subspan(33));
  if (xv >= Fe::modulus() || sv >= Scalar::order()) return false;
  out.rx = Fe::from_u256(xv);
  out.r_odd = sig[0] == 0x03;
  out.s = Scalar::from_u256(sv);
  return true;
}

}  // namespace

Scalar schnorr_challenge(const Point& r, const Point& pk, const Hash256& msg) {
  return challenge(r.compressed(), pk.compressed(), msg);
}

Bytes schnorr_sign(const Scalar& sk, const Hash256& msg) {
  static const Byte kDomain[] = {'s', 'c', 'h', 'n', 'o', 'r', 'r'};
  const Scalar k = rfc6979_nonce(sk, msg, {kDomain, sizeof(kDomain)});
  return sign_with_nonce(k, sk, Point::mul_gen(sk).compressed(), msg);
}

Bytes schnorr_sign(const KeyPair& kp, const Hash256& msg) {
  // BIP340-style synthetic nonce: one tagged hash binding the secret key,
  // the public key and the message. Deterministic; distinct messages give
  // independent nonces. k = 0 has probability ~2^-256 but the scheme must
  // not emit R = infinity, so fall back to the RFC 6979 path if it happens.
  static const Sha256 kPrefix = Sha256::tagged_init("daric/schnorr-nonce");
  const Bytes pk_bytes = kp.pk.compressed();
  Sha256 h = kPrefix;
  h.update(kp.sk.to_be_bytes()).update(pk_bytes).update(msg.view());
  const Scalar k = Scalar::from_be_bytes_reduce(h.finalize().view());
  if (k.is_zero()) return schnorr_sign(kp.sk, msg);
  return sign_with_nonce(k, kp.sk, pk_bytes, msg);
}

bool schnorr_verify(const Point& pk, const Hash256& msg, BytesView sig) {
  WireSig w;
  if (pk.is_infinity() || !split_sig(sig, w)) return false;
  const Scalar e = challenge(sig.subspan(0, 33), pk.compressed(), msg);
  // s·G == R + e·P  ⟺  (−e)·P + s·G == R, one Strauss–Shamir ladder whose
  // result is matched against R's x in Jacobian coordinates and against its
  // parity with one inversion.
  return Point::mul_add_matches_vartime(e.neg(), pk, w.s, w.rx, w.r_odd);
}

bool schnorr_verify(const PrecomputedPoint& pk, const Hash256& msg, BytesView sig) {
  WireSig w;
  if (!split_sig(sig, w)) return false;
  const Scalar e = challenge(sig.subspan(0, 33), pk.compressed(), msg);
  return Point::mul_add_matches_vartime(e.neg(), pk, w.s, w.rx, w.r_odd);
}

}  // namespace daric::crypto
