// Schnorr adaptor signatures (the primitive the Generalized-channel baseline
// depends on, and that Daric explicitly avoids — see paper Sec. 8).
//
// Pre-signature for statement Y = y*G: (R̂ = k*G + Y, ŝ = k + e*x) with
// e = H(R̂ || P || m). Adapting with witness y yields the ordinary Schnorr
// signature (R̂, ŝ + y); the witness is extractable as y = s − ŝ.
#pragma once

#include "src/crypto/schnorr.h"

namespace daric::crypto {

struct AdaptorPreSig {
  Point r_hat;   // R̂ = R + Y
  Scalar s_hat;  // ŝ
};

AdaptorPreSig adaptor_pre_sign(const Scalar& sk, const Hash256& msg, const Point& statement);
/// Keypair variant: reuses the cached public key instead of recomputing
/// P = sk·G. Same RFC 6979 nonce, so the bytes equal the scalar variant's.
AdaptorPreSig adaptor_pre_sign(const KeyPair& kp, const Hash256& msg, const Point& statement);
bool adaptor_pre_verify(const Point& pk, const Hash256& msg, const Point& statement,
                        const AdaptorPreSig& pre);
/// Completes the pre-signature into a valid Schnorr signature (raw encoding).
Bytes adaptor_adapt(const AdaptorPreSig& pre, const Scalar& witness);
/// Recovers the witness from a completed signature and its pre-signature.
Scalar adaptor_extract(BytesView sig, const AdaptorPreSig& pre);

}  // namespace daric::crypto
