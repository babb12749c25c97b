#include "src/crypto/keys.h"

#include "src/crypto/ct.h"
#include "src/crypto/sha256.h"

namespace daric::crypto {

KeyPair derive_keypair(std::string_view label) {
  static const Sha256 kPrefix = Sha256::tagged_init("daric/keygen");
  const Hash256 h = Sha256(kPrefix)
                        .update({reinterpret_cast<const Byte*>(label.data()), label.size()})
                        .finalize();
  Scalar sk = Scalar::from_be_bytes_reduce(h.view());
  if (ct_is_zero(sk.to_be_bytes())) sk = Scalar(1);  // astronomically unlikely; keep keys valid
  return {sk, Point::mul_gen(sk)};
}

Bytes pubkey_bytes(const Point& pk) { return pk.compressed(); }

}  // namespace daric::crypto
