#include "src/crypto/adaptor.h"

#include <stdexcept>

#include "src/crypto/rfc6979.h"

namespace daric::crypto {

AdaptorPreSig adaptor_pre_sign(const Scalar& sk, const Hash256& msg, const Point& statement) {
  return adaptor_pre_sign(KeyPair{sk, Point::mul_gen(sk)}, msg, statement);
}

AdaptorPreSig adaptor_pre_sign(const KeyPair& kp, const Hash256& msg, const Point& statement) {
  static const Byte kDomain[] = {'a', 'd', 'a', 'p', 't', 'o', 'r'};
  const Scalar k = rfc6979_nonce(kp.sk, msg, {kDomain, sizeof(kDomain)});
  const Point r_hat = Point::mul_gen(k) + statement;
  const Scalar e = schnorr_challenge(r_hat, kp.pk, msg);
  return {r_hat, k + e * kp.sk};
}

bool adaptor_pre_verify(const Point& pk, const Hash256& msg, const Point& statement,
                        const AdaptorPreSig& pre) {
  if (pk.is_infinity() || pre.r_hat.is_infinity()) return false;
  const Scalar e = schnorr_challenge(pre.r_hat, pk, msg);
  // ŝ·G + Y == R̂ + e·P  ⟺  (−e)·P + ŝ·G == R̂ − Y, one Strauss–Shamir
  // ladder. R̂ − Y is infinity when R̂ = Y, and then so must the left be.
  return Point::mul_add_equals_vartime(e.neg(), pk, pre.s_hat, pre.r_hat + statement.neg());
}

Bytes adaptor_adapt(const AdaptorPreSig& pre, const Scalar& witness) {
  const Scalar s = pre.s_hat + witness;
  return concat({pre.r_hat.compressed(), s.to_be_bytes()});
}

Scalar adaptor_extract(BytesView sig, const AdaptorPreSig& pre) {
  if (sig.size() != kSchnorrSigSize) throw std::invalid_argument("bad signature size");
  const U256 sv = U256::from_be_bytes(sig.subspan(33));
  if (sv >= Scalar::order()) throw std::invalid_argument("bad signature scalar");
  return Scalar::from_u256(sv) - pre.s_hat;
}

}  // namespace daric::crypto
