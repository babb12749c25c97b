#include "src/crypto/scalar.h"

#include <stdexcept>

#include "src/crypto/modinv.h"

namespace daric::crypto {

namespace {
constexpr const modarith::Params& params() { return detail::kScalarParams; }
}  // namespace

Scalar Scalar::from_u256(const U256& v) {
  if (v >= params().m) throw std::invalid_argument("Scalar out of range");
  Scalar s;
  s.v_ = v;
  return s;
}

Scalar Scalar::from_be_bytes_reduce(BytesView b) {
  U512 wide;
  const U256 v = U256::from_be_bytes(b);
  for (int i = 0; i < 4; ++i) wide.limb[static_cast<std::size_t>(i)] = v.limb[static_cast<std::size_t>(i)];
  Scalar s;
  s.v_ = modarith::reduce512(wide, params());
  return s;
}

Scalar Scalar::inv() const {
  if (is_zero()) throw std::domain_error("Scalar inverse of zero");
  // Constant-time safegcd (see modinv.h): ECDSA inverts its secret nonce.
  static constexpr modinv::ModInfo kInfo = modinv::make_modinfo(detail::kScalarParams.m);
  Scalar r;
  r.v_ = modinv::inverse(v_, kInfo);
  return r;
}

}  // namespace daric::crypto
