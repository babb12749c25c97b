#include "src/crypto/sig_scheme.h"

#include "src/crypto/ecdsa.h"
#include "src/crypto/schnorr.h"

namespace daric::crypto {

namespace {

class SchnorrScheme final : public SignatureScheme {
 public:
  std::string name() const override { return "schnorr"; }
  std::size_t signature_size() const override { return kSchnorrSigSize; }
  Bytes sign(const Scalar& sk, const Hash256& msg) const override {
    return schnorr_sign(sk, msg);
  }
  bool verify(const Point& pk, const Hash256& msg, BytesView sig) const override {
    return schnorr_verify(pk, msg, sig);
  }
  Bytes sign_with(const KeyPair& kp, const Hash256& msg) const override {
    return schnorr_sign(kp, msg);
  }
  bool verify_cached(const PrecomputedPoint& pre, const Hash256& msg,
                     BytesView sig) const override {
    return schnorr_verify(pre, msg, sig);
  }
  bool supports_adaptor() const override { return true; }
};

class EcdsaScheme final : public SignatureScheme {
 public:
  std::string name() const override { return "ecdsa"; }
  std::size_t signature_size() const override { return kEcdsaSigSize; }
  Bytes sign(const Scalar& sk, const Hash256& msg) const override { return ecdsa_sign(sk, msg); }
  bool verify(const Point& pk, const Hash256& msg, BytesView sig) const override {
    return ecdsa_verify(pk, msg, sig);
  }
  bool supports_adaptor() const override { return false; }
};

}  // namespace

const SignatureScheme& schnorr_scheme() {
  static const SchnorrScheme s;
  return s;
}

const SignatureScheme& ecdsa_scheme() {
  static const EcdsaScheme s;
  return s;
}

OpCounters& op_counters() {
  static OpCounters c;
  return c;
}

Bytes SignatureScheme::sign_with(const KeyPair& kp, const Hash256& msg) const {
  return sign(kp.sk, msg);
}

bool SignatureScheme::verify_cached(const PrecomputedPoint& pre, const Hash256& msg,
                                    BytesView sig) const {
  return verify(pre.point(), msg, sig);
}

bool SignatureScheme::verify_batch(std::span<const SigBatchItem> items) const {
  for (const SigBatchItem& it : items)
    if (!(it.pre != nullptr ? verify_cached(*it.pre, it.msg, it.sig)
                            : verify(it.pk, it.msg, it.sig)))
      return false;
  return true;
}

Bytes CountingScheme::sign(const Scalar& sk, const Hash256& msg) const {
  op_counters().signs.fetch_add(1, std::memory_order_relaxed);
  return inner_.sign(sk, msg);
}

bool CountingScheme::verify(const Point& pk, const Hash256& msg, BytesView sig) const {
  op_counters().verifies.fetch_add(1, std::memory_order_relaxed);
  return inner_.verify(pk, msg, sig);
}

Bytes CountingScheme::sign_with(const KeyPair& kp, const Hash256& msg) const {
  op_counters().signs.fetch_add(1, std::memory_order_relaxed);
  return inner_.sign_with(kp, msg);
}

bool CountingScheme::verify_cached(const PrecomputedPoint& pre, const Hash256& msg,
                                   BytesView sig) const {
  op_counters().verifies.fetch_add(1, std::memory_order_relaxed);
  return inner_.verify_cached(pre, msg, sig);
}

bool CountingScheme::verify_batch(std::span<const SigBatchItem> items) const {
  op_counters().verifies.fetch_add(items.size(), std::memory_order_relaxed);
  return inner_.verify_batch(items);
}

}  // namespace daric::crypto
