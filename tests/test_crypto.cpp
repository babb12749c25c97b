// Unit tests for the from-scratch crypto substrate.
#include <gtest/gtest.h>

#include <sched.h>

#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/crypto/adaptor.h"
#include "src/crypto/ct.h"
#include "src/crypto/ecdsa.h"
#include "src/crypto/hmac.h"
#include "src/crypto/keys.h"
#include "src/crypto/ripemd160.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sig_scheme.h"
#include "src/daric/protocol.h"
#include "src/tx/serializer.h"
#include "src/util/hex.h"

namespace daric {
namespace {

using crypto::Fe;
using crypto::Point;
using crypto::Scalar;
using crypto::U256;

Bytes str_bytes(std::string_view s) {
  return Bytes(reinterpret_cast<const Byte*>(s.data()),
               reinterpret_cast<const Byte*>(s.data()) + s.size());
}

// --- Constant-time comparison helpers ---------------------------------------

TEST(ConstantTime, CtEqualBytes) {
  const Bytes a = str_bytes("0123456789abcdef0123456789abcdef");
  Bytes b = a;
  EXPECT_TRUE(crypto::ct_equal(a, b));
  EXPECT_TRUE(crypto::ct_equal(Bytes{}, Bytes{}));

  b.front() ^= 0x01;  // mismatch in the first byte
  EXPECT_FALSE(crypto::ct_equal(a, b));
  b = a;
  b.back() ^= 0x80;  // mismatch in the last byte
  EXPECT_FALSE(crypto::ct_equal(a, b));

  // Length mismatch is never equal, even on a shared prefix.
  EXPECT_FALSE(crypto::ct_equal(a, BytesView(a).subspan(0, a.size() - 1)));
}

TEST(ConstantTime, CtIsZero) {
  EXPECT_TRUE(crypto::ct_is_zero(Bytes{}));
  EXPECT_TRUE(crypto::ct_is_zero(Bytes(32, 0)));
  Bytes b(32, 0);
  b[31] = 1;
  EXPECT_FALSE(crypto::ct_is_zero(b));
  b[31] = 0;
  b[0] = 0x80;
  EXPECT_FALSE(crypto::ct_is_zero(b));
}

TEST(ConstantTime, CtEqualScalar) {
  const Scalar x = crypto::derive_keypair("ct/x").sk;
  const Scalar y = crypto::derive_keypair("ct/y").sk;
  EXPECT_TRUE(crypto::ct_equal(x, x));
  EXPECT_FALSE(crypto::ct_equal(x, y));
  EXPECT_TRUE(crypto::ct_equal(Scalar(0), Scalar(0)));
  EXPECT_FALSE(crypto::ct_equal(Scalar(0), Scalar(1)));
}

// --- SHA-256 (FIPS 180-4 vectors) ------------------------------------------

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(crypto::Sha256::hash({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(crypto::Sha256::hash(str_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(crypto::Sha256::hash(str_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  crypto::Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = str_bytes("the quick brown fox jumps over the lazy dog and more data");
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    crypto::Sha256 h;
    h.update({data.data(), split});
    h.update({data.data() + split, data.size() - split});
    EXPECT_EQ(h.finalize(), crypto::Sha256::hash(data));
  }
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  const Bytes d = str_bytes("x");
  EXPECT_NE(crypto::Sha256::double_hash(d), crypto::Sha256::hash(d));
  EXPECT_EQ(crypto::Sha256::double_hash(d),
            crypto::Sha256::hash(crypto::Sha256::hash(d).view()));
}

TEST(Sha256, TaggedHashDomainSeparates) {
  const Bytes d = str_bytes("msg");
  EXPECT_NE(crypto::Sha256::tagged("a", d), crypto::Sha256::tagged("b", d));
}

// --- SHA-NI compression against the portable one ---------------------------

constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// FIPS 180-4 padding of `msg`, as whole 64-byte blocks.
Bytes sha256_padded(const Bytes& msg) {
  Bytes out = msg;
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  const std::uint64_t bits = msg.size() * 8;
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<Byte>(bits >> (8 * i)));
  return out;
}

using CompressFn = void (*)(std::uint32_t*, const Byte*, std::size_t);

std::string sha256_with(CompressFn compress, const Bytes& msg) {
  std::uint32_t st[8];
  std::copy(std::begin(kSha256Iv), std::end(kSha256Iv), st);
  const Bytes blocks = sha256_padded(msg);
  compress(st, blocks.data(), blocks.size() / 64);
  Hash256 h;
  for (std::size_t i = 0; i < 32; ++i) h.data[i] = static_cast<Byte>(st[i / 4] >> (24 - 8 * (i % 4)));
  return h.hex();
}

TEST(Sha256Compress, PortableMatchesNistVectors) {
  EXPECT_EQ(sha256_with(crypto::detail::sha256_compress_portable, str_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_with(crypto::detail::sha256_compress_portable,
                        str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Compress, ShaNiMatchesPortable) {
#if defined(__x86_64__)
  if (!crypto::detail::sha256_shani_supported())
    GTEST_SKIP() << "this CPU lacks SHA-NI or SSE4.1; the portable compression is in use";
  const CompressFn shani = crypto::detail::sha256_compress_shani;
  const CompressFn portable = crypto::detail::sha256_compress_portable;
  EXPECT_EQ(sha256_with(shani, {}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_with(shani, str_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_with(shani,
                        str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // Random states and runs of 1..8 random blocks.
  std::mt19937_64 rng(0x5A256);
  for (int i = 0; i < 500; ++i) {
    std::uint32_t a[8], b[8];
    for (int k = 0; k < 8; ++k) a[k] = b[k] = static_cast<std::uint32_t>(rng());
    Bytes blocks(64 * (1 + rng() % 8));
    for (Byte& x : blocks) x = static_cast<Byte>(rng());
    shani(a, blocks.data(), blocks.size() / 64);
    portable(b, blocks.data(), blocks.size() / 64);
    ASSERT_TRUE(std::equal(a, a + 8, b)) << i;
  }
#else
  GTEST_SKIP() << "SHA-NI is x86-64 only; the portable compression is in use";
#endif
}

// The streaming hasher (whichever compression this CPU dispatches to, and
// the one-step finalize padding) against padding by hand over the portable
// compression, at every length around the block and padding boundaries.
TEST(Sha256Compress, StreamingMatchesPortableReference) {
  std::mt19937_64 rng(294);
  for (std::size_t len = 0; len <= 294; ++len) {
    Bytes msg(len);
    for (Byte& x : msg) x = static_cast<Byte>(rng());
    const std::string want = sha256_with(crypto::detail::sha256_compress_portable, msg);
    ASSERT_EQ(crypto::Sha256::hash(msg).hex(), want) << len;
    crypto::Sha256 h;  // fed in uneven pieces
    for (std::size_t off = 0; off < len;) {
      const std::size_t take = std::min<std::size_t>(len - off, 1 + off % 37);
      h.update({msg.data() + off, take});
      off += take;
    }
    ASSERT_EQ(h.finalize().hex(), want) << len;
  }
}

// --- RIPEMD-160 (ISO test vectors) ------------------------------------------

TEST(Ripemd160, StandardVectors) {
  EXPECT_EQ(to_hex(crypto::ripemd160({}).view()),
            "9c1185a5c5e9fc54612808977ee8f548b2258d31");
  EXPECT_EQ(to_hex(crypto::ripemd160(str_bytes("abc")).view()),
            "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc");
  EXPECT_EQ(to_hex(crypto::ripemd160(str_bytes("message digest")).view()),
            "5d0689ef49d2fae572b881b123a85ffa21595f36");
  EXPECT_EQ(to_hex(crypto::ripemd160(str_bytes(
                "abcdefghijklmnopqrstuvwxyz")).view()),
            "f71c27109c692c1b56bbdceb5b9d2865b3708dbc");
}

TEST(Ripemd160, Hash160IsRipemdOfSha) {
  const Bytes d = str_bytes("pubkey");
  EXPECT_EQ(crypto::hash160(d), crypto::ripemd160(crypto::Sha256::hash(d).view()));
}

// --- HMAC-SHA256 (RFC 4231) ---------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(crypto::hmac_sha256(key, str_bytes("Hi There")).hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(crypto::hmac_sha256(str_bytes("Jefe"),
                                str_bytes("what do ya want for nothing?")).hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(crypto::hmac_sha256(key, str_bytes(
                "Test Using Larger Than Block-Size Key - Hash Key First")).hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- U256 ---------------------------------------------------------------

TEST(U256Test, ByteRoundTrip) {
  const U256 v = U256::from_hex("0123456789abcdef0011223344556677fedcba98765432100123456789abcdef");
  EXPECT_EQ(U256::from_be_bytes(v.to_be_bytes()), v);
}

TEST(U256Test, AddCarry) {
  U256 max;
  max.limb = {~0ull, ~0ull, ~0ull, ~0ull};
  U256 out;
  EXPECT_EQ(crypto::add_with_carry(max, U256(1), out), 1u);
  EXPECT_TRUE(out.is_zero());
}

TEST(U256Test, SubBorrow) {
  U256 out;
  EXPECT_EQ(crypto::sub_with_borrow(U256(0), U256(1), out), 1u);
  EXPECT_EQ(crypto::sub_with_borrow(U256(5), U256(3), out), 0u);
  EXPECT_EQ(out, U256(2));
}

TEST(U256Test, MulFull) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  const U256 v(~0ull);
  const crypto::U512 p = crypto::mul_full(v, v);
  EXPECT_EQ(p.limb[0], 1ull);
  EXPECT_EQ(p.limb[1], ~0ull - 1);
  EXPECT_EQ(p.limb[2], 0ull);
}

TEST(U256Test, Ordering) {
  EXPECT_LT(U256(1), U256(2));
  EXPECT_LT(U256(~0ull), U256(0, 1, 0, 0));
  EXPECT_GT(U256(0, 0, 0, 1), U256(~0ull, ~0ull, ~0ull, 0));
}

TEST(U256Test, BitLength) {
  EXPECT_EQ(U256(0).bit_length(), 0u);
  EXPECT_EQ(U256(1).bit_length(), 1u);
  EXPECT_EQ(U256(0, 0, 0, 1ull << 63).bit_length(), 256u);
}

TEST(U256Test, Shr) {
  const U256 v = U256::from_hex("ff00000000000000000000000000000000");
  EXPECT_EQ(crypto::shr(v, 8), U256::from_hex("ff000000000000000000000000000000"));
}

// --- Field & scalar -------------------------------------------------------

TEST(FieldTest, AddSubInverse) {
  const Fe a = Fe::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("a")).view());
  const Fe b = Fe::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("b")).view());
  EXPECT_EQ(a + b - b, a);
  EXPECT_EQ((a - a), Fe(0));
}

TEST(FieldTest, MulInverse) {
  const Fe a = Fe::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("z")).view());
  EXPECT_EQ(a * a.inv(), Fe(1));
}

TEST(FieldTest, SqrtRoundTrip) {
  const Fe a = Fe::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("sq")).view());
  const Fe sq = a.sqr();
  Fe root;
  ASSERT_TRUE(sq.sqrt(root));
  EXPECT_TRUE(root == a || root == a.neg());
}

TEST(FieldTest, NonResidueRejected) {
  // -1 is a non-residue mod p (p ≡ 3 mod 4).
  Fe root;
  EXPECT_FALSE(Fe(1).neg().sqrt(root));
}

TEST(ScalarTest, Arithmetic) {
  const Scalar a = Scalar::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("s1")).view());
  const Scalar b = Scalar::from_be_bytes_reduce(crypto::Sha256::hash(str_bytes("s2")).view());
  EXPECT_EQ(a + b - b, a);
  EXPECT_EQ(a * a.inv(), Scalar(1));
  EXPECT_EQ(a + a.neg(), Scalar(0));
}

TEST(ScalarTest, ReductionIsCanonical) {
  // Order + 5 reduces to 5.
  U256 v = Scalar::order();
  U256 out;
  crypto::add_with_carry(v, U256(5), out);
  EXPECT_EQ(Scalar::from_be_bytes_reduce(out.to_be_bytes()), Scalar(5));
}

// --- Curve points --------------------------------------------------------

TEST(PointTest, GeneratorOnCurve) {
  const Point g = Point::generator();
  EXPECT_FALSE(g.is_infinity());
  EXPECT_EQ(g.y().sqr(), g.x().sqr() * g.x() + Fe(7));
}

TEST(PointTest, AdditionMatchesScalarMul) {
  const Point g = Point::generator();
  EXPECT_EQ(g + g, g * Scalar(2));
  EXPECT_EQ(g + g + g, g * Scalar(3));
  EXPECT_EQ(g.dbl(), g * Scalar(2));
}

TEST(PointTest, MulGenMatchesGenericMul) {
  for (int i = 1; i <= 20; ++i) {
    const Scalar k = Scalar::from_be_bytes_reduce(
        crypto::Sha256::hash(str_bytes("k" + std::to_string(i))).view());
    EXPECT_EQ(Point::mul_gen(k), Point::generator() * k);
  }
}

TEST(PointTest, NegCancels) {
  const Point p = Point::mul_gen(Scalar(42));
  EXPECT_TRUE((p + p.neg()).is_infinity());
}

TEST(PointTest, InfinityIdentity) {
  const Point p = Point::mul_gen(Scalar(7));
  EXPECT_EQ(p + Point(), p);
  EXPECT_EQ(Point() + p, p);
}

TEST(PointTest, CompressedRoundTrip) {
  for (int i = 1; i <= 10; ++i) {
    const Point p = Point::mul_gen(Scalar(static_cast<std::uint64_t>(i * 1234567)));
    const auto back = Point::from_compressed(p.compressed());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
}

TEST(PointTest, BadCompressedRejected) {
  Bytes junk(33, 0xff);
  junk[0] = 0x02;
  EXPECT_FALSE(Point::from_compressed(junk).has_value());
  EXPECT_FALSE(Point::from_compressed(Bytes{0x04}).has_value());
}

TEST(PointTest, ScalarMulDistributes) {
  const Scalar a(12345), b(67890);
  EXPECT_EQ(Point::mul_gen(a + b), Point::mul_gen(a) + Point::mul_gen(b));
}

// --- Schnorr ----------------------------------------------------------------

TEST(Schnorr, SignVerify) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("hello"));
  const Bytes sig = crypto::schnorr_sign(kp.sk, msg);
  EXPECT_EQ(sig.size(), crypto::kSchnorrSigSize);
  EXPECT_TRUE(crypto::schnorr_verify(kp.pk, msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const Bytes sig = crypto::schnorr_sign(kp.sk, crypto::Sha256::hash(str_bytes("m1")));
  EXPECT_FALSE(crypto::schnorr_verify(kp.pk, crypto::Sha256::hash(str_bytes("m2")), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const auto other = crypto::derive_keypair("other");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  EXPECT_FALSE(crypto::schnorr_verify(other.pk, msg, crypto::schnorr_sign(kp.sk, msg)));
}

TEST(Schnorr, RejectsMalleatedSignature) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  Bytes sig = crypto::schnorr_sign(kp.sk, msg);
  for (std::size_t i = 0; i < sig.size(); i += 9) {
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(crypto::schnorr_verify(kp.pk, msg, bad)) << "byte " << i;
  }
}

TEST(Schnorr, DeterministicSignatures) {
  const auto kp = crypto::derive_keypair("schnorr-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  EXPECT_EQ(crypto::schnorr_sign(kp.sk, msg), crypto::schnorr_sign(kp.sk, msg));
}

// --- ECDSA ----------------------------------------------------------------

TEST(Ecdsa, SignVerify) {
  const auto kp = crypto::derive_keypair("ecdsa-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("hello"));
  const Bytes sig = crypto::ecdsa_sign(kp.sk, msg);
  EXPECT_EQ(sig.size(), crypto::kEcdsaSigSize);
  EXPECT_TRUE(crypto::ecdsa_verify(kp.pk, msg, sig));
}

TEST(Ecdsa, LowS) {
  const auto kp = crypto::derive_keypair("ecdsa-test");
  for (int i = 0; i < 8; ++i) {
    const Hash256 msg = crypto::Sha256::hash(str_bytes("m" + std::to_string(i)));
    const Bytes sig = crypto::ecdsa_sign(kp.sk, msg);
    const U256 s = U256::from_be_bytes(BytesView(sig).subspan(32));
    EXPECT_LE(s, crypto::shr(Scalar::order(), 1));
  }
}

TEST(Ecdsa, RejectsTamper) {
  const auto kp = crypto::derive_keypair("ecdsa-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  Bytes sig = crypto::ecdsa_sign(kp.sk, msg);
  sig[5] ^= 1;
  EXPECT_FALSE(crypto::ecdsa_verify(kp.pk, msg, sig));
}

// --- Adaptor signatures -------------------------------------------------

TEST(Adaptor, PreSignAdaptExtract) {
  const auto signer = crypto::derive_keypair("adaptor-signer");
  const auto witness = crypto::derive_keypair("adaptor-witness");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("commit"));

  const auto pre = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
  EXPECT_TRUE(crypto::adaptor_pre_verify(signer.pk, msg, witness.pk, pre));

  const Bytes sig = crypto::adaptor_adapt(pre, witness.sk);
  EXPECT_TRUE(crypto::schnorr_verify(signer.pk, msg, sig));

  EXPECT_EQ(crypto::adaptor_extract(sig, pre), witness.sk);
}

TEST(Adaptor, PreSigIsNotAValidSignature) {
  const auto signer = crypto::derive_keypair("adaptor-signer");
  const auto witness = crypto::derive_keypair("adaptor-witness");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("commit"));
  const auto pre = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
  const Bytes as_sig = concat({pre.r_hat.compressed(), pre.s_hat.to_be_bytes()});
  EXPECT_FALSE(crypto::schnorr_verify(signer.pk, msg, as_sig));
}

TEST(Adaptor, PreVerifyRejectsWrongStatement) {
  const auto signer = crypto::derive_keypair("adaptor-signer");
  const auto witness = crypto::derive_keypair("adaptor-witness");
  const auto wrong = crypto::derive_keypair("adaptor-wrong");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("commit"));
  const auto pre = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
  EXPECT_FALSE(crypto::adaptor_pre_verify(signer.pk, msg, wrong.pk, pre));
}

TEST(Adaptor, PreVerifyRejectsTamperedParts) {
  const auto signer = crypto::derive_keypair("adaptor-signer");
  const auto witness = crypto::derive_keypair("adaptor-witness");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("commit"));
  const auto pre = crypto::adaptor_pre_sign(signer, msg, witness.pk);
  ASSERT_TRUE(crypto::adaptor_pre_verify(signer.pk, msg, witness.pk, pre));
  auto bad_s = pre;
  bad_s.s_hat = pre.s_hat + Scalar(1);
  EXPECT_FALSE(crypto::adaptor_pre_verify(signer.pk, msg, witness.pk, bad_s));
  auto bad_r = pre;
  bad_r.r_hat = pre.r_hat + Point::generator();
  EXPECT_FALSE(crypto::adaptor_pre_verify(signer.pk, msg, witness.pk, bad_r));
  EXPECT_FALSE(
      crypto::adaptor_pre_verify(signer.pk, msg, witness.pk + Point::generator(), pre));
  EXPECT_FALSE(crypto::adaptor_pre_verify(signer.pk, msg, witness.pk.neg(), pre));
}

// R̂ = Y makes the expected point R̂ − Y infinity: ŝ = e·x then satisfies
// ŝ·G + Y = R̂ + e·P, exactly as the two-sided check computes it.
TEST(Adaptor, PreVerifyWhenStatementEqualsRHat) {
  const auto signer = crypto::derive_keypair("adaptor-signer");
  const Point y = crypto::derive_keypair("adaptor-witness").pk;
  const Hash256 msg = crypto::Sha256::hash(str_bytes("commit"));
  const Scalar e = crypto::schnorr_challenge(y, signer.pk, msg);
  const crypto::AdaptorPreSig pre{y, e * signer.sk};
  ASSERT_EQ(Point::mul_gen(pre.s_hat) + y, pre.r_hat + signer.pk * e);
  EXPECT_TRUE(crypto::adaptor_pre_verify(signer.pk, msg, y, pre));
  auto bad = pre;
  bad.s_hat = pre.s_hat + Scalar(1);
  EXPECT_FALSE(crypto::adaptor_pre_verify(signer.pk, msg, y, bad));
}

// --- Scheme abstraction ------------------------------------------------

TEST(SigScheme, SchnorrAndEcdsaInterchangeable) {
  const auto kp = crypto::derive_keypair("scheme-test");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  for (const crypto::SignatureScheme* s :
       {&crypto::schnorr_scheme(), &crypto::ecdsa_scheme()}) {
    const Bytes sig = s->sign(kp.sk, msg);
    EXPECT_EQ(sig.size(), s->signature_size());
    EXPECT_TRUE(s->verify(kp.pk, msg, sig)) << s->name();
  }
}

TEST(SigScheme, AdaptorSupportFlags) {
  EXPECT_TRUE(crypto::schnorr_scheme().supports_adaptor());
  EXPECT_FALSE(crypto::ecdsa_scheme().supports_adaptor());
}

TEST(SigScheme, CountingSchemeCounts) {
  crypto::op_counters().reset();
  crypto::CountingScheme counting(crypto::schnorr_scheme());
  const auto kp = crypto::derive_keypair("count");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("m"));
  const Bytes sig = counting.sign(kp.sk, msg);
  counting.verify(kp.pk, msg, sig);
  counting.verify(kp.pk, msg, sig);
  EXPECT_EQ(crypto::op_counters().signs.load(), 1u);
  EXPECT_EQ(crypto::op_counters().verifies.load(), 2u);
}

// Deterministic key derivation: distinct labels, distinct keys.
TEST(Keys, DistinctLabelsDistinctKeys) {
  EXPECT_FALSE(crypto::derive_keypair("x").sk == crypto::derive_keypair("y").sk);
  EXPECT_EQ(crypto::derive_keypair("x").sk, crypto::derive_keypair("x").sk);
}

// Algebraic-law sweeps over pseudo-random elements.
class AlgebraSweep : public ::testing::TestWithParam<int> {
 protected:
  Fe fe(const std::string& label) const {
    return Fe::from_be_bytes_reduce(
        crypto::Sha256::hash(str_bytes(label + std::to_string(GetParam()))).view());
  }
  Scalar sc(const std::string& label) const {
    return Scalar::from_be_bytes_reduce(
        crypto::Sha256::hash(str_bytes(label + std::to_string(GetParam()))).view());
  }
};

TEST_P(AlgebraSweep, FieldRingLaws) {
  const Fe a = fe("a"), b = fe("b"), c = fe("c");
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a * Fe(1), a);
  EXPECT_EQ(a + Fe(0), a);
}

TEST_P(AlgebraSweep, FieldInverseAndSqrt) {
  const Fe a = fe("inv");
  if (!a.is_zero()) {
    EXPECT_EQ(a * a.inv(), Fe(1));
    EXPECT_EQ(a.inv().inv(), a);
  }
  Fe root;
  ASSERT_TRUE(a.sqr().sqrt(root));
  EXPECT_EQ(root.sqr(), a.sqr());
}

TEST_P(AlgebraSweep, ScalarFieldLaws) {
  const Scalar a = sc("x"), b = sc("y");
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ(a - b, (b - a).neg());
  if (!b.is_zero()) {
    EXPECT_EQ(a * b * b.inv(), a);
  }
}

TEST_P(AlgebraSweep, GroupHomomorphism) {
  // φ(k) = k·G is a homomorphism: φ(a+b) = φ(a) + φ(b), φ(ab) = a·φ(b).
  const Scalar a = sc("g1"), b = sc("g2");
  EXPECT_EQ(Point::mul_gen(a + b), Point::mul_gen(a) + Point::mul_gen(b));
  EXPECT_EQ(Point::mul_gen(a * b), Point::mul_gen(b) * a);
  EXPECT_TRUE((Point::mul_gen(a) + Point::mul_gen(a.neg())).is_infinity());
}

TEST_P(AlgebraSweep, PointAdditionLaws) {
  const Point p = Point::mul_gen(sc("p"));
  const Point q = Point::mul_gen(sc("q"));
  const Point r = Point::mul_gen(sc("r"));
  EXPECT_EQ(p + q, q + p);
  EXPECT_EQ((p + q) + r, p + (q + r));
  EXPECT_EQ(p + p, p.dbl());
}

INSTANTIATE_TEST_SUITE_P(Random, AlgebraSweep, ::testing::Range(0, 8));

class SchnorrSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchnorrSweep, RoundTripManyKeys) {
  const int i = GetParam();
  const auto kp = crypto::derive_keypair("sweep" + std::to_string(i));
  const Hash256 msg = crypto::Sha256::hash(str_bytes("msg" + std::to_string(i)));
  EXPECT_TRUE(crypto::schnorr_verify(kp.pk, msg, crypto::schnorr_sign(kp.sk, msg)));
  EXPECT_TRUE(crypto::ecdsa_verify(kp.pk, msg, crypto::ecdsa_sign(kp.sk, msg)));
}

INSTANTIATE_TEST_SUITE_P(Keys, SchnorrSweep, ::testing::Range(0, 12));

// --- wNAF / Strauss–Shamir cross-checks -----------------------------------
//
// The verification hot path (wNAF tables, Strauss–Shamir interleaving,
// batch RLC) must agree with the reference bit-at-a-time ladder on random
// inputs. Scalars are derived by hashing a counter so failures reproduce.

Scalar sweep_scalar(std::string_view label, int i) {
  return Scalar::from_be_bytes_reduce(
      crypto::Sha256::hash(str_bytes(std::string(label) + std::to_string(i))).view());
}

TEST(MulCrossCheck, WnafAndStraussAgreeWithNaiveLadder1k) {
  for (int i = 0; i < 1000; ++i) {
    const Scalar a = sweep_scalar("xchk-a", i);
    const Scalar b = sweep_scalar("xchk-b", i);
    const Point p = Point::mul_gen(sweep_scalar("xchk-p", i));
    const Point ladder = Point::mul_ladder_vartime(p, a);
    ASSERT_EQ(p * a, ladder) << "wNAF mismatch at i=" << i;
    ASSERT_EQ(Point::mul_add_vartime(a, p, b), ladder + Point::mul_gen(b))
        << "Strauss–Shamir mismatch at i=" << i;
  }
}

TEST(MulCrossCheck, EdgeScalars) {
  const Point p = Point::mul_gen(sweep_scalar("edge-p", 0));
  EXPECT_TRUE((p * Scalar(0)).is_infinity());
  EXPECT_EQ(p * Scalar(1), p);
  EXPECT_EQ(p * Scalar(1).neg(), p.neg());
  // Order-adjacent scalars exercise the wNAF carry chain.
  const Scalar minus_two = Scalar(2).neg();
  EXPECT_EQ(p * minus_two, Point::mul_ladder_vartime(p, minus_two));
  EXPECT_EQ(Point::mul_add_vartime(Scalar(0), p, Scalar(0)),
            Point::mul_ladder_vartime(p, Scalar(0)));
}

TEST(MulCrossCheck, MulAddEqualsMatchesExplicitComputation) {
  for (int i = 0; i < 32; ++i) {
    const Scalar a = sweep_scalar("eq-a", i);
    const Scalar b = sweep_scalar("eq-b", i);
    const Point p = Point::mul_gen(sweep_scalar("eq-p", i));
    const Point expect = Point::mul_add_vartime(a, p, b);
    EXPECT_TRUE(Point::mul_add_equals_vartime(a, p, b, expect));
    EXPECT_FALSE(Point::mul_add_equals_vartime(a, p, b, expect + p));
  }
}

// mul_add_matches_vartime against a PrecomputedPoint (the chunked fixed-base
// ladder) must name exactly the point the variable-point ladder computes:
// its x with its parity, and nothing for an infinite result.
void expect_precomputed_agrees(const Point& p, const crypto::PrecomputedPoint& pre,
                               const Scalar& a, const Scalar& b, const std::string& what) {
  const Point r = Point::mul_add_vartime(a, p, b);
  if (r.is_infinity()) {
    EXPECT_FALSE(Point::mul_add_matches_vartime(a, pre, b, Point::generator().x(), false)) << what;
    EXPECT_FALSE(Point::mul_add_matches_vartime(a, pre, b, Point::generator().x(), true)) << what;
    return;
  }
  EXPECT_TRUE(Point::mul_add_matches_vartime(a, pre, b, r.x(), r.y().is_odd())) << what;
  EXPECT_FALSE(Point::mul_add_matches_vartime(a, pre, b, r.x(), !r.y().is_odd())) << what;
}

Scalar scalar_hex(std::string_view hex) { return Scalar::from_u256(U256::from_hex(hex)); }

TEST(MulCrossCheck, PrecomputedSplitLadder) {
  for (int i = 0; i < 1000; ++i) {
    const Point p = Point::mul_gen(sweep_scalar("split-p", i));
    const crypto::PrecomputedPoint pre(p);
    expect_precomputed_agrees(p, pre, sweep_scalar("split-a", i), sweep_scalar("split-b", i),
                              "i=" + std::to_string(i));
  }

  const Point p = Point::mul_gen(sweep_scalar("split-edge-p", 0));
  const crypto::PrecomputedPoint pre(p);
  const Scalar minus_one = Scalar(1).neg();
  for (const Scalar& b : {Scalar(0), Scalar(1), minus_one})
    expect_precomputed_agrees(p, pre, Scalar(0), b, "a=0");
  expect_precomputed_agrees(p, pre, Scalar(1), Scalar(0), "a=1 b=0");
  expect_precomputed_agrees(p, pre, minus_one, Scalar(0), "a=n-1 b=0");
  // a·P = −b·G: the ladder must reach infinity.
  expect_precomputed_agrees(p, pre, Scalar(1), sweep_scalar("split-edge-p", 0).neg(), "a·P=-b·G");

  // Every power-of-two boundary, so each chunk edge of the generator scalar
  // (and of any chunk width) sees 2^k − 1, 2^k and 2^k + 1.
  for (unsigned k = 0; k < 256; ++k) {
    U256 pow2{};
    pow2.limb[k / 64] = std::uint64_t{1} << (k % 64);
    const Scalar t = Scalar::from_u256(pow2);
    for (const Scalar& d : {Scalar(1).neg(), Scalar(0), Scalar(1)})
      expect_precomputed_agrees(p, pre, t + d, t - d, "k=" + std::to_string(k));
  }

  // The same boundaries inside the GLV halves: a = k1 + k2·λ with
  // k1, k2 = ±(2^m ± 1), small enough that the split returns them as is.
  const Scalar lambda =
      scalar_hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
  for (unsigned m = 0; m < 125; ++m) {
    U256 pow2{};
    pow2.limb[m / 64] = std::uint64_t{1} << (m % 64);
    const Scalar t = Scalar::from_u256(pow2);
    for (const Scalar& d : {Scalar(1).neg(), Scalar(0), Scalar(1)}) {
      const Scalar k1 = t + d;
      const Scalar k2 = t - d;
      expect_precomputed_agrees(p, pre, k1 + k2 * lambda, t, "m=" + std::to_string(m));
      expect_precomputed_agrees(p, pre, k1.neg() + k2 * lambda, t, "m=" + std::to_string(m));
      expect_precomputed_agrees(p, pre, k1 - k2 * lambda, t, "m=" + std::to_string(m));
    }
  }

  // Scalars whose GLV halves sit at the edge of their range with each sign:
  // found by sampling the split, they give halves (k1, k2)/2^128 of about
  // (0.635, −0.350), (−0.635, 0.349), (0.446, 0.540), (−0.441, −0.539),
  // (0.446, 0.541) and (−0.635, 0.351). Neighbours ±1 and ±λ move the
  // halves by one unit.
  for (const char* hex : {"baa1f4f6be40172ceadc2a134ea7651ceb714e7c9e44c9b790ecdf5a092e4c65",
                          "bf0b4d28c98bce3db74156561de4420ea49b8dce53ac9408a0a1ea1c1dafd598",
                          "a77810b00703a51e376a7631e3e97bab448b99f746cb086ae50d9bc7857ef894",
                          "e26ea9d747aa55d3009bc269cec872368c2bfde363d06d4f2ca437d95f3cc5a2",
                          "2d9cad8185a53ed2a315a09790e0aaf68aa4c10e550be4c6d0b42d6f9e539206",
                          "37d72528c37941833575c521aabaa570d48d8bb8e5677189c31bfc75c792868e"}) {
    const Scalar k = scalar_hex(hex);
    for (const Scalar& a : {k, k + Scalar(1), k - Scalar(1), k + lambda, k - lambda, k.neg()})
      expect_precomputed_agrees(p, pre, a, sweep_scalar("split-edge-b", 0), hex);
  }
}

std::vector<crypto::SigBatchItem> make_batch(int n) {
  std::vector<crypto::SigBatchItem> items;
  for (int i = 0; i < n; ++i) {
    const auto kp = crypto::derive_keypair("batch" + std::to_string(i));
    const Hash256 msg = crypto::Sha256::hash(str_bytes("bmsg" + std::to_string(i)));
    items.push_back({kp.pk, msg, crypto::schnorr_sign(kp.sk, msg)});
  }
  return items;
}

TEST(SchnorrBatch, AcceptsValidBatch) {
  EXPECT_TRUE(crypto::schnorr_scheme().verify_batch({}));
  const auto one = make_batch(1);
  EXPECT_TRUE(crypto::schnorr_scheme().verify_batch(one));
  const auto items = make_batch(16);
  EXPECT_TRUE(crypto::schnorr_scheme().verify_batch(items));
}

TEST(SchnorrBatch, RejectsSingleFlippedBit) {
  auto items = make_batch(8);
  // A single flipped bit anywhere in any signature must sink the batch.
  for (const std::size_t victim : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    for (const std::size_t byte : {std::size_t{1}, std::size_t{40}, std::size_t{64}}) {
      auto tampered = items;
      tampered[victim].sig[byte] ^= 0x01;
      EXPECT_FALSE(crypto::schnorr_scheme().verify_batch(tampered))
          << "victim=" << victim << " byte=" << byte;
    }
  }
}

TEST(SchnorrBatch, RejectsWrongMessageAndSwappedKeys) {
  auto items = make_batch(4);
  auto wrong_msg = items;
  wrong_msg[2].msg = crypto::Sha256::hash(str_bytes("not the signed message"));
  EXPECT_FALSE(crypto::schnorr_scheme().verify_batch(wrong_msg));
  auto swapped = items;
  std::swap(swapped[0].pk, swapped[1].pk);
  EXPECT_FALSE(crypto::schnorr_scheme().verify_batch(swapped));
}

TEST(Schnorr, KeyPairSignVerifies) {
  const auto kp = crypto::derive_keypair("kp-fast-sign");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("keypair nonce path"));
  // The keypair variant uses a different (synthetic) nonce than the sk
  // variant, so the bytes differ — but both must verify under the same key.
  const Bytes fast = crypto::schnorr_sign(kp, msg);
  const Bytes slow = crypto::schnorr_sign(kp.sk, msg);
  EXPECT_TRUE(crypto::schnorr_verify(kp.pk, msg, fast));
  EXPECT_TRUE(crypto::schnorr_verify(kp.pk, msg, slow));
  const Hash256 other = crypto::Sha256::hash(str_bytes("other message"));
  EXPECT_FALSE(crypto::schnorr_verify(kp.pk, other, fast));
}

TEST(Schnorr, PrecomputedVerifyMatchesPlain) {
  const auto kp = crypto::derive_keypair("precomp-verify");
  const crypto::PrecomputedPoint pre(kp.pk);
  for (int i = 0; i < 4; ++i) {
    const Hash256 msg = crypto::Sha256::hash(str_bytes("pv" + std::to_string(i)));
    const Bytes sig = crypto::schnorr_sign(kp, msg);
    EXPECT_TRUE(crypto::schnorr_verify(pre, msg, sig));
    EXPECT_EQ(crypto::schnorr_verify(pre, msg, sig),
              crypto::schnorr_verify(kp.pk, msg, sig));
    Bytes bad = sig;
    bad[10] ^= 0x04;
    EXPECT_FALSE(crypto::schnorr_verify(pre, msg, bad));
  }
}

TEST(SchnorrBatch, PrecomputedTablesGiveSameVerdict) {
  auto items = make_batch(5);
  // Attach tables to a subset of the keys — the batch path must serve mixed
  // precomputed/plain entries.
  std::vector<std::unique_ptr<crypto::PrecomputedPoint>> tables;
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    tables.push_back(std::make_unique<crypto::PrecomputedPoint>(items[i].pk));
    items[i].pre = tables.back().get();
  }
  EXPECT_TRUE(crypto::schnorr_scheme().verify_batch(items));
  auto tampered = items;
  tampered[2].sig[17] ^= 0x20;
  EXPECT_FALSE(crypto::schnorr_scheme().verify_batch(tampered));
  const std::span<const crypto::SigBatchItem> one(items.data() + 2, 1);
  EXPECT_TRUE(crypto::schnorr_scheme().verify_batch(one));  // n==1 precomputed path
}

TEST(SchnorrBatch, SchemeInterfaceRoutesBatches) {
  // Schnorr no longer batches: the scheme interface checks items one by one.
  const auto& schnorr = crypto::schnorr_scheme();
  ASSERT_FALSE(schnorr.supports_batch_verify());
  auto items = make_batch(5);
  EXPECT_TRUE(schnorr.verify_batch(items));
  items[1].sig[10] ^= 0x80;
  EXPECT_FALSE(schnorr.verify_batch(items));

  // ECDSA has no batch equation; the default per-item loop still gives
  // correct verdicts through the same interface.
  const auto& ecdsa = crypto::ecdsa_scheme();
  EXPECT_FALSE(ecdsa.supports_batch_verify());
  std::vector<crypto::SigBatchItem> eitems;
  for (int i = 0; i < 3; ++i) {
    const auto kp = crypto::derive_keypair("ebatch" + std::to_string(i));
    const Hash256 msg = crypto::Sha256::hash(str_bytes("emsg" + std::to_string(i)));
    eitems.push_back({kp.pk, msg, crypto::ecdsa_sign(kp.sk, msg)});
  }
  EXPECT_TRUE(ecdsa.verify_batch(eitems));
  eitems[2].sig[5] ^= 0x01;
  EXPECT_FALSE(ecdsa.verify_batch(eitems));
}

// --- Parallel batch verification ----------------------------------------------
// verify_batch fans a batch out over the process-wide worker pool. Every case
// holds with and without worker threads (e.g. under `taskset -c 0`).

// The verdict of the item-by-item loop verify_batch replaced.
bool serial_verdict(const crypto::SignatureScheme& scheme,
                    std::span<const crypto::SigBatchItem> items) {
  for (const crypto::SigBatchItem& it : items)
    if (!(it.pre != nullptr ? scheme.verify_cached(*it.pre, it.msg, it.sig)
                            : scheme.verify(it.pk, it.msg, it.sig)))
      return false;
  return true;
}

std::vector<crypto::SigBatchItem> signed_batch(const crypto::SignatureScheme& scheme, int n,
                                               const std::string& tag) {
  std::vector<crypto::SigBatchItem> items;
  for (int i = 0; i < n; ++i) {
    const auto kp = crypto::derive_keypair(tag + "/key" + std::to_string(i));
    const Hash256 msg = crypto::Sha256::hash(str_bytes(tag + "/msg" + std::to_string(i)));
    items.push_back({kp.pk, msg, scheme.sign(kp.sk, msg)});
  }
  return items;
}

void forge(crypto::SigBatchItem& it) { it.sig[40] ^= 0x01; }

TEST(VerifyBatch, VerdictMatchesSerialLoopWithForgeryAtEachPosition) {
  const auto& scheme = crypto::schnorr_scheme();
  for (int n = 0; n <= 8; ++n) {
    const auto items = signed_batch(scheme, n, "vb-size" + std::to_string(n));
    EXPECT_TRUE(serial_verdict(scheme, items));
    EXPECT_TRUE(scheme.verify_batch(items)) << "n=" << n;
    for (int bad = 0; bad < n; ++bad) {
      auto forged = items;
      forge(forged[bad]);
      EXPECT_FALSE(serial_verdict(scheme, forged));
      EXPECT_FALSE(scheme.verify_batch(forged)) << "n=" << n << " forged=" << bad;
    }
  }
}

TEST(VerifyBatch, MixesPrecomputedAndPlainItemsForBothSchemes) {
  for (const crypto::SignatureScheme* scheme :
       {&crypto::schnorr_scheme(), &crypto::ecdsa_scheme()}) {
    for (int n = 2; n <= 5; ++n) {
      auto items = signed_batch(*scheme, n, scheme->name() + "-mix" + std::to_string(n));
      std::vector<crypto::PrecomputedPoint> tables;
      tables.reserve(items.size());
      for (std::size_t i = 0; i < items.size(); i += 2) {
        tables.emplace_back(items[i].pk);
        items[i].pre = &tables.back();
      }
      EXPECT_TRUE(scheme->verify_batch(items)) << scheme->name() << " n=" << n;
      for (int bad = 0; bad < n; ++bad) {
        auto forged = items;
        forge(forged[bad]);
        EXPECT_FALSE(scheme->verify_batch(forged))
            << scheme->name() << " n=" << n << " forged=" << bad;
      }
    }
  }
}

TEST(VerifyBatch, ConcurrentCallersOnDistinctBatches) {
  const auto& scheme = crypto::schnorr_scheme();
  constexpr int kThreads = 4;
  std::vector<std::vector<crypto::SigBatchItem>> good, bad;
  for (int t = 0; t < kThreads; ++t) {
    good.push_back(signed_batch(scheme, 2 + t, "vb-thread" + std::to_string(t)));
    bad.push_back(good.back());
    forge(bad.back()[static_cast<std::size_t>(t) % bad.back().size()]);
  }
  int wrong[kThreads] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 10; ++round) {
        if (!scheme.verify_batch(good[t])) ++wrong[t];
        if (scheme.verify_batch(bad[t])) ++wrong[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0) << "thread " << t;
}

TEST(VerifyBatch, PoolNeverOutnumbersCores) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  const std::size_t workers = crypto::verify_pool_workers();
  EXPECT_LE(workers, 2u);
  EXPECT_LT(workers, static_cast<std::size_t>(CPU_COUNT(&allowed)));
}

// A scheme whose verify throws on one poisoned message; it keeps the
// default verify_batch, so the pool runs its verify on worker threads.
class ThrowingScheme final : public crypto::SignatureScheme {
 public:
  explicit ThrowingScheme(Hash256 poison) : poison_(poison) {}
  std::string name() const override { return inner_.name(); }
  std::size_t signature_size() const override { return inner_.signature_size(); }
  Bytes sign(const Scalar& sk, const Hash256& msg) const override { return inner_.sign(sk, msg); }
  bool verify(const Point& pk, const Hash256& msg, BytesView sig) const override {
    if (msg == poison_) throw std::runtime_error("poisoned item");
    return inner_.verify(pk, msg, sig);
  }
  bool supports_adaptor() const override { return false; }

 private:
  const crypto::SignatureScheme& inner_ = crypto::schnorr_scheme();
  Hash256 poison_;
};

TEST(VerifyBatch, ExceptionFromAnyItemReachesTheCaller) {
  const auto items = signed_batch(crypto::schnorr_scheme(), 4, "vb-throw");
  for (const crypto::SigBatchItem& victim : items) {
    const ThrowingScheme scheme(victim.msg);
    EXPECT_THROW(scheme.verify_batch(items), std::runtime_error);
  }
  // The pool is free again afterwards.
  EXPECT_TRUE(crypto::schnorr_scheme().verify_batch(items));
}

// A scheme whose every verify makes a batch call of its own while the pool is
// busy with the outer one: the inner call must verify serially, not wait.
class NestingScheme final : public crypto::SignatureScheme {
 public:
  explicit NestingScheme(std::span<const crypto::SigBatchItem> inner_batch)
      : inner_batch_(inner_batch) {}
  std::string name() const override { return inner_.name(); }
  std::size_t signature_size() const override { return inner_.signature_size(); }
  Bytes sign(const Scalar& sk, const Hash256& msg) const override { return inner_.sign(sk, msg); }
  bool verify(const Point& pk, const Hash256& msg, BytesView sig) const override {
    return inner_.verify_batch(inner_batch_) && inner_.verify(pk, msg, sig);
  }
  bool supports_adaptor() const override { return false; }

 private:
  const crypto::SignatureScheme& inner_ = crypto::schnorr_scheme();
  std::span<const crypto::SigBatchItem> inner_batch_;
};

TEST(VerifyBatch, NestedCallsFallBackToSerial) {
  const auto inner = signed_batch(crypto::schnorr_scheme(), 2, "vb-nest-inner");
  auto outer = signed_batch(crypto::schnorr_scheme(), 3, "vb-nest-outer");
  const NestingScheme scheme(inner);
  EXPECT_TRUE(scheme.verify_batch(outer));
  forge(outer[1]);
  EXPECT_FALSE(scheme.verify_batch(outer));
  auto forged_inner = inner;
  forge(forged_inner[0]);
  EXPECT_FALSE(NestingScheme(forged_inner).verify_batch(signed_batch(
      crypto::schnorr_scheme(), 3, "vb-nest-outer")));
}

TEST(VerifyBatch, ThreadPinnedToOneCpuVerifies) {
  crypto::verify_pool_workers();  // the pool exists before the pin
  const auto items = signed_batch(crypto::schnorr_scheme(), 3, "vb-pinned");
  auto forged = items;
  forge(forged[2]);
  bool pinned = false, good = false, bad = true;
  std::thread t([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    int cpu = 0;
    while (!CPU_ISSET(cpu, &set)) ++cpu;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pinned = sched_setaffinity(0, sizeof(set), &set) == 0;
    good = crypto::schnorr_scheme().verify_batch(items);
    bad = crypto::schnorr_scheme().verify_batch(forged);
  });
  t.join();
  EXPECT_TRUE(pinned);
  EXPECT_TRUE(good);
  EXPECT_FALSE(bad);
}

// --- Field differential test --------------------------------------------------
// Fe (5×52 limbs, lazy reduction) against the generic 4×64 modarith reference
// at the same modulus, including inputs at the largest magnitude each
// operation accepts.

namespace fieldref {

const crypto::modarith::Params& params() { return crypto::detail::kFieldParams; }
U256 add(const U256& a, const U256& b) { return crypto::modarith::add_mod(a, b, params()); }
U256 sub(const U256& a, const U256& b) { return crypto::modarith::sub_mod(a, b, params()); }
U256 mul(const U256& a, const U256& b) { return crypto::modarith::mul_mod(a, b, params()); }
U256 neg(const U256& a) { return sub(U256(0), a); }
U256 inv(const U256& a) { return crypto::modarith::inv_mod(a, params()); }
bool sqrt(const U256& a, U256& out) {
  U256 e;
  crypto::add_with_carry(params().m, U256(1), e);
  const U256 cand = crypto::modarith::pow_mod(a, crypto::shr(e, 2), params());
  if (!(mul(cand, cand) == a)) return false;
  out = cand;
  return true;
}

}  // namespace fieldref

const U256 kP = Fe::modulus();
U256 p_minus(std::uint64_t k) {
  U256 r;
  crypto::sub_with_borrow(kP, U256(k), r);
  return r;
}

// Random canonical values, with the edge cases mixed in often.
class FieldValues {
 public:
  explicit FieldValues(std::uint64_t seed) : rng_(seed) {}
  U256 next() {
    switch (rng_() % 8) {
      case 0: {
        static const U256 edges[] = {U256(0), U256(1), U256(2), p_minus(1), p_minus(2),
                                     U256{0, 0, 0, 1} /* 2^192 */,
                                     U256{0xFFFFFFFFFFFFFULL, 0, 0, 0} /* 2^52 − 1 */};
        return edges[rng_() % std::size(edges)];
      }
      case 1:  // sparse high limbs
        return crypto::modarith::normalize(U256{rng_() & 0xff, 0, 0, rng_()}, fieldref::params());
      default:
        return crypto::modarith::normalize(U256{rng_(), rng_(), rng_(), rng_()},
                                           fieldref::params());
    }
  }

 private:
  std::mt19937_64 rng_;
};

TEST(FieldDiff, RandomOpsMatchReference10k) {
  FieldValues gen(0xF1E1D);
  for (int i = 0; i < 10'000; ++i) {
    const U256 a = gen.next(), b = gen.next();
    const Fe fa = Fe::from_u256(a), fb = Fe::from_u256(b);
    ASSERT_EQ((fa * fb).to_u256(), fieldref::mul(a, b)) << i;
    ASSERT_EQ(fa.sqr().to_u256(), fieldref::mul(a, a)) << i;
    ASSERT_EQ((fa + fb).to_u256(), fieldref::add(a, b)) << i;
    ASSERT_EQ((fa - fb).to_u256(), fieldref::sub(a, b)) << i;
    ASSERT_EQ(fa.neg().to_u256(), fieldref::neg(a)) << i;
    ASSERT_EQ(fa.neg(1).to_u256(), fieldref::neg(a)) << i;
    ASSERT_EQ(fa.mul_int(7).to_u256(), fieldref::mul(a, U256(7))) << i;
    if (i % 8 == 0) {
      if (!a.is_zero()) {
        ASSERT_EQ(fa.inv().to_u256(), fieldref::inv(a)) << i;
      }
      Fe root;
      U256 ref_root;
      const bool has = fa.sqrt(root);
      ASSERT_EQ(has, fieldref::sqrt(a, ref_root)) << i;
      if (has) {
        ASSERT_EQ(root.to_u256(), ref_root) << i;
      }
    }
  }
}

TEST(FieldDiff, EdgeValues) {
  for (const U256& a : {U256(0), U256(1), p_minus(1), p_minus(2)}) {
    const Fe fa = Fe::from_u256(a);
    for (const U256& b : {U256(0), U256(1), p_minus(1), p_minus(2)}) {
      const Fe fb = Fe::from_u256(b);
      EXPECT_EQ((fa * fb).to_u256(), fieldref::mul(a, b));
      EXPECT_EQ((fa + fb).to_u256(), fieldref::add(a, b));
      EXPECT_EQ((fa - fb).to_u256(), fieldref::sub(a, b));
    }
    EXPECT_EQ(fa.sqr().to_u256(), fieldref::mul(a, a));
    EXPECT_EQ(fa.neg().to_u256(), fieldref::neg(a));
    EXPECT_EQ(fa.is_zero(), a.is_zero());
    EXPECT_EQ(fa.is_odd(), a.is_odd());
  }
  EXPECT_EQ(Fe::from_u256(p_minus(1)).inv().to_u256(), p_minus(1));  // (−1)⁻¹ = −1
  EXPECT_THROW(Fe(0).inv(), std::domain_error);
  EXPECT_THROW(Fe::from_u256(kP), std::invalid_argument);
}

TEST(FieldDiff, ReducesValuesAtOrAboveP) {
  // 32-byte inputs in [p, 2^256) reduce by exactly one p.
  const U256 all_ones{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  std::mt19937_64 rng(7);
  std::vector<U256> wide = {kP, U256{kP.limb[0] + 1, kP.limb[1], kP.limb[2], kP.limb[3]},
                            all_ones};
  for (int i = 0; i < 100; ++i) {
    U256 v;
    crypto::add_with_carry(kP, U256(rng() % (all_ones.limb[0] - kP.limb[0])), v);
    wide.push_back(v);
  }
  for (const U256& v : wide) {
    U256 want;
    crypto::sub_with_borrow(v, kP, want);
    const Fe f = Fe::from_be_bytes_reduce(v.to_be_bytes());
    EXPECT_EQ(f.to_u256(), want);
    EXPECT_EQ(f, Fe::from_u256(want));
    EXPECT_EQ(to_hex(f.to_be_bytes()), to_hex(want.to_be_bytes()));
  }
}

TEST(FieldDiff, MaximumMagnitudeInputs) {
  FieldValues gen(0xA11CE);
  for (int i = 0; i < 500; ++i) {
    const U256 a = gen.next(), b = gen.next();
    const Fe fa = Fe::from_u256(a), fb = Fe::from_u256(b);
    // neg(7) of a magnitude-1 element yields magnitude 8 with every limb
    // close to its bound (16·p's limbs minus a's) — the largest inputs the
    // multiply accepts.
    const Fe na = fa.neg(Fe::kMaxMulMagnitude - 1), nb = fb.neg(Fe::kMaxMulMagnitude - 1);
    ASSERT_EQ((na * nb).to_u256(), fieldref::mul(a, b)) << i;
    ASSERT_EQ(na.sqr().to_u256(), fieldref::mul(a, a)) << i;
    ASSERT_EQ((na * fb).to_u256(), fieldref::neg(fieldref::mul(a, b))) << i;
    // Magnitude 8 reached by scaling instead.
    const Fe a8 = fa.mul_int(Fe::kMaxMulMagnitude);
    ASSERT_EQ((a8 * na).to_u256(), fieldref::neg(fieldref::mul(U256(8), fieldref::mul(a, a))))
        << i;
    // Normalization and comparison at the overall magnitude ceiling.
    const Fe top = fa.neg(Fe::kMaxMagnitude - 1);
    ASSERT_EQ(top.to_u256(), fieldref::neg(a)) << i;
    ASSERT_EQ(top.is_zero(), a.is_zero()) << i;
    ASSERT_EQ(fa.mul_int(Fe::kMaxMagnitude).to_u256(), fieldref::mul(U256(32), a)) << i;
    Fe weak = top;
    weak.normalize_weak();
    ASSERT_EQ(weak.to_u256(), fieldref::neg(a)) << i;
    ASSERT_EQ((weak * weak).to_u256(), fieldref::mul(a, a)) << i;
  }
}

TEST(FieldDiff, DistinctRepresentationsCompareEqual) {
  FieldValues gen(0xE0);
  for (int i = 0; i < 200; ++i) {
    const Fe a = Fe::from_u256(gen.next()), b = Fe::from_u256(gen.next());
    const Fe sum = a + b;                       // magnitude 2
    const Fe twice_negated = sum.neg(2).neg(3);  // magnitude 4, same value
    EXPECT_EQ(sum, twice_negated);
    EXPECT_EQ(twice_negated, Fe::from_u256(fieldref::add(a.to_u256(), b.to_u256())));
    // 0 carried as 16·p in the limbs.
    EXPECT_EQ(Fe(0).neg(Fe::kMaxMulMagnitude - 1) + a, a);
    EXPECT_TRUE(Fe(0).neg(Fe::kMaxMulMagnitude - 1).is_zero());
    EXPECT_EQ(a.to_be_bytes(), (a + Fe(0).neg(3)).to_be_bytes());
  }
}

#ifndef NDEBUG
TEST(FieldDiffDeathTest, MagnitudeBudgetIsAsserted) {
  const Fe a = Fe::from_u256(U256(5));
  EXPECT_DEATH((void)(a.mul_int(Fe::kMaxMulMagnitude + 1) * a), "");
  EXPECT_DEATH((void)a.mul_int(Fe::kMaxMulMagnitude + 1).sqr(), "");
  EXPECT_DEATH((void)(a + a).neg(1), "");
  EXPECT_DEATH((void)a.mul_int(Fe::kMaxMagnitude + 1), "");
}
#endif

// --- Safegcd inversion against the Fermat reference ---------------------------

namespace scalarref {
const crypto::modarith::Params& params() { return crypto::detail::kScalarParams; }
U256 inv(const U256& a) { return crypto::modarith::inv_mod(a, params()); }
U256 minus(std::uint64_t k) {
  U256 r;
  crypto::sub_with_borrow(params().m, U256(k), r);
  return r;
}
}  // namespace scalarref

const U256 k2Pow255{0, 0, 0, 1ULL << 63};

TEST(SafegcdInverse, FieldEdgeValues) {
  for (const U256& a : {U256(1), U256(2), p_minus(1), p_minus(2), k2Pow255}) {
    const Fe fa = Fe::from_u256(a);
    EXPECT_EQ(fa.inv().to_u256(), fieldref::inv(a));
    EXPECT_EQ(fa * fa.inv(), Fe(1));
  }
  EXPECT_THROW(Fe(0).inv(), std::domain_error);
  EXPECT_THROW(Fe(0).neg(Fe::kMaxMulMagnitude - 1).inv(), std::domain_error);  // 16·p in limbs
  EXPECT_THROW((Fe::from_u256(p_minus(1)) + Fe(1)).inv(), std::domain_error);  // p in limbs
}

TEST(SafegcdInverse, FieldUnreducedInputs) {
  FieldValues gen(0x5AFE6CD);
  for (int i = 0; i < 500; ++i) {
    const U256 a = gen.next();
    if (a.is_zero()) continue;
    const Fe fa = Fe::from_u256(a);
    const U256 want = fieldref::inv(a);
    // Magnitude 8: −a carried as 16·p − a in the limbs, then negated back.
    const Fe neg8 = fa.neg(Fe::kMaxMulMagnitude - 1);
    ASSERT_EQ(neg8.inv().to_u256(), fieldref::neg(want)) << i;
    ASSERT_EQ(fa.mul_int(Fe::kMaxMulMagnitude).inv().to_u256(),
              fieldref::mul(want, fieldref::inv(U256(8))))
        << i;
    // a + p: a value at or above p before reduction.
    const Fe above_p = fa + Fe::from_u256(p_minus(1)) + Fe(1);
    ASSERT_EQ(above_p.inv().to_u256(), want) << i;
  }
}

TEST(SafegcdInverse, FieldRandomMatchesReference10k) {
  std::mt19937_64 rng(0x1DE6);
  for (int i = 0; i < 10'000; ++i) {
    const U256 a = crypto::modarith::normalize(U256{rng(), rng(), rng(), rng()}, fieldref::params());
    if (a.is_zero()) continue;
    ASSERT_EQ(Fe::from_u256(a).inv().to_u256(), fieldref::inv(a)) << i;
  }
}

TEST(SafegcdInverse, ScalarMatchesReference) {
  for (const U256& a : {U256(1), U256(2), scalarref::minus(1), scalarref::minus(2), k2Pow255}) {
    const Scalar sa = Scalar::from_u256(a);
    EXPECT_EQ(sa.inv().raw(), scalarref::inv(a));
    EXPECT_EQ(sa * sa.inv(), Scalar(1));
  }
  // 32-byte inputs at or above n reduce before inverting.
  const Scalar wrapped = Scalar::from_be_bytes_reduce(U256{~0ULL, ~0ULL, ~0ULL, ~0ULL}.to_be_bytes());
  EXPECT_EQ(wrapped.inv().raw(), scalarref::inv(wrapped.raw()));
  EXPECT_EQ(Scalar::from_be_bytes_reduce(Scalar::order().to_be_bytes()), Scalar(0));
  EXPECT_THROW(Scalar(0).inv(), std::domain_error);
  std::mt19937_64 rng(0x5CA1A);
  for (int i = 0; i < 10'000; ++i) {
    const U256 a = crypto::modarith::normalize(U256{rng(), rng(), rng(), rng()}, scalarref::params());
    if (a.is_zero()) continue;
    ASSERT_EQ(Scalar::from_u256(a).inv().raw(), scalarref::inv(a)) << i;
  }
}

// --- Single verify without lifting R -------------------------------------------
// schnorr_verify matches R′ = s·G − e·P against R's x and prefix parity. The
// oracle below is the path it replaced: lift R from its encoding (square
// root), then compare points. Both must give the same verdict on every input.

bool lift_r_verify(const Point& pk, const Hash256& msg, BytesView sig) {
  if (sig.size() != crypto::kSchnorrSigSize || pk.is_infinity()) return false;
  const auto r = Point::from_compressed(sig.subspan(0, 33));
  if (!r) return false;
  const U256 sv = U256::from_be_bytes(sig.subspan(33));
  if (sv >= Scalar::order()) return false;
  const Scalar e = crypto::schnorr_challenge(*r, pk, msg);
  return Point::mul_add_equals_vartime(e.neg(), pk, Scalar::from_u256(sv), *r);
}

Bytes with_r(const Byte prefix, const U256& x, BytesView sig) {
  Bytes out{prefix};
  append(out, x.to_be_bytes());
  append(out, sig.subspan(33));
  return out;
}

class SingleVerify : public ::testing::Test {
 protected:
  crypto::KeyPair kp = crypto::derive_keypair("single-verify");
  crypto::PrecomputedPoint pre{kp.pk};
  Hash256 msg = crypto::Sha256::hash(str_bytes("single verify"));

  // Asserts that both overloads and the lift-R oracle agree, and returns it.
  bool verdict(BytesView sig) {
    const bool want = lift_r_verify(kp.pk, msg, sig);
    EXPECT_EQ(crypto::schnorr_verify(kp.pk, msg, sig), want) << to_hex(sig);
    EXPECT_EQ(crypto::schnorr_verify(pre, msg, sig), want) << to_hex(sig);
    return want;
  }
};

TEST_F(SingleVerify, ValidSignaturesAndFlippedParity) {
  for (int i = 0; i < 16; ++i) {
    msg = crypto::Sha256::hash(str_bytes("sv" + std::to_string(i)));
    for (const Bytes& sig : {crypto::schnorr_sign(kp, msg), crypto::schnorr_sign(kp.sk, msg)}) {
      EXPECT_TRUE(verdict(sig));
      Bytes flipped = sig;
      flipped[0] ^= 0x01;  // 02 <-> 03: the same x, the other y
      EXPECT_FALSE(verdict(flipped));
    }
  }
}

// A signature built by hand on nonce point Q = k·G verifies. With s = −k + e·x
// instead, R′ = −Q: the x the encoding names, with the other parity.
TEST_F(SingleVerify, OppositeParityResultRejected) {
  for (int i = 0; i < 16; ++i) {
    const Scalar k = Scalar::from_be_bytes_reduce(
        crypto::Sha256::hash(str_bytes("sv-nonce" + std::to_string(i))).view());
    const Point q = Point::mul_gen(k);
    const Scalar e = crypto::schnorr_challenge(q, kp.pk, msg);
    EXPECT_TRUE(verdict(concat({q.compressed(), (k + e * kp.sk).to_be_bytes()})));
    EXPECT_FALSE(verdict(concat({q.compressed(), (k.neg() + e * kp.sk).to_be_bytes()})));
    EXPECT_TRUE(Point::mul_add_vartime(e.neg(), kp.pk, k.neg() + e * kp.sk) == q.neg());
  }
}

TEST_F(SingleVerify, MalformedR) {
  const Bytes sig = crypto::schnorr_sign(kp, msg);
  const U256 rx = U256::from_be_bytes(BytesView(sig).subspan(1, 32));
  for (const Byte prefix : {Byte{0x00}, Byte{0x04}, Byte{0x05}, Byte{0xff}})
    EXPECT_FALSE(verdict(with_r(prefix, rx, sig)));
  const U256 all_ones{~0ULL, ~0ULL, ~0ULL, ~0ULL};
  U256 p_plus_1;
  crypto::add_with_carry(kP, U256(1), p_plus_1);
  for (const U256& x : {kP, p_plus_1, all_ones}) {
    EXPECT_FALSE(verdict(with_r(0x02, x, sig)));
    EXPECT_FALSE(verdict(with_r(0x03, x, sig)));
  }
  // An x whose x³ + 7 is a non-residue names no curve point.
  std::uint64_t v = 1;
  Fe root;
  while ((Fe(v).sqr() * Fe(v) + Fe(7)).sqrt(root)) ++v;
  const Bytes no_point = with_r(0x02, U256(v), sig);
  EXPECT_FALSE(Point::from_compressed(BytesView(no_point).subspan(0, 33)).has_value());
  EXPECT_FALSE(verdict(no_point));
  EXPECT_FALSE(verdict(with_r(0x03, U256(v), sig)));
  EXPECT_FALSE(verdict(Bytes(sig.begin(), sig.end() - 1)));  // short
}

TEST_F(SingleVerify, OutOfRangeS) {
  const Bytes sig = crypto::schnorr_sign(kp, msg);
  Bytes s_is_n(sig.begin(), sig.begin() + 33);
  append(s_is_n, Scalar::order().to_be_bytes());
  EXPECT_FALSE(verdict(s_is_n));
  Bytes s_max(sig.begin(), sig.begin() + 33);
  append(s_max, Bytes(32, 0xff));
  EXPECT_FALSE(verdict(s_max));
}

// s = e·x makes R′ = s·G − e·P the point at infinity, which no R matches.
TEST_F(SingleVerify, InfinityResultRejected) {
  const Bytes sig = crypto::schnorr_sign(kp, msg);
  const Point r = *Point::from_compressed(BytesView(sig).subspan(0, 33));
  const Scalar e = crypto::schnorr_challenge(r, kp.pk, msg);
  Bytes forged(sig.begin(), sig.begin() + 33);
  append(forged, (e * kp.sk).to_be_bytes());
  EXPECT_FALSE(verdict(forged));
  EXPECT_TRUE(Point::mul_add_vartime(e.neg(), kp.pk, e * kp.sk).is_infinity());
}

TEST_F(SingleVerify, RandomTamperingAgrees) {
  std::mt19937_64 rng(0x7A3);
  for (int i = 0; i < 200; ++i) {
    msg = crypto::Sha256::hash(str_bytes("tamper" + std::to_string(i)));
    Bytes sig = crypto::schnorr_sign(kp, msg);
    sig[rng() % sig.size()] ^= static_cast<Byte>(1u << (rng() % 8));
    EXPECT_FALSE(verdict(sig)) << i;
  }
}

// --- Golden wire bytes -------------------------------------------------------
// Exact encodings pinned from a known-good build. Signature and key bytes feed
// the Table 1/3 size accounting and every txid downstream, so any change to
// the field, point or hash layers must leave them bit-for-bit identical.

// The keypair pre-signature reuses the cached public key but keeps the
// RFC 6979 nonce, so its bytes equal the secret-key variant's.
TEST(Adaptor, KeyPairVariantMatchesSecretKeyVariant) {
  const auto signer = crypto::derive_keypair("adaptor/kp");
  const auto witness = crypto::derive_keypair("adaptor/y");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("keypair pre-signature"));
  const auto by_sk = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
  const auto by_kp = crypto::adaptor_pre_sign(signer, msg, witness.pk);
  EXPECT_TRUE(by_sk.r_hat == by_kp.r_hat);
  EXPECT_EQ(by_sk.s_hat.to_be_bytes(), by_kp.s_hat.to_be_bytes());
}

TEST(GoldenWire, CompressedPubkeys) {
  EXPECT_EQ(to_hex(crypto::derive_keypair("golden/a").pk.compressed()),
            "03fdc713e3ec958eeeb5af5f4c14ba806947da95464b4d74db8f21218e68f8cd1a");
  EXPECT_EQ(to_hex(crypto::derive_keypair("golden/b").pk.compressed()),
            "026dee8ee0f6bb8ed9a4f7ffa19e193d4da23811853be8b79a0c8a7d3b0997dd4d");
  EXPECT_EQ(to_hex(crypto::derive_keypair("alice/rv/0").pk.compressed()),
            "02105f91f235262e1e3589d9c106569b8d49ffd77b015e452c2418b4da040e4acd");
}

TEST(GoldenWire, SchnorrSignatures) {
  const auto kp = crypto::derive_keypair("golden/a");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("golden message"));
  EXPECT_EQ(to_hex(crypto::schnorr_sign(kp.sk, msg)),
            "0330d125511992905f1387abbf695666d6c020c871f518393819a8e0a2b24ce3"
            "07acabfddc9a8ec817e86ae78bf9f76af8bab5d88413fc733838211ba43e8089"
            "18");
  EXPECT_EQ(to_hex(crypto::schnorr_sign(kp, msg)),
            "03269c1f34ce35a77ad80f3f3913bc0040d3cabd68a0206f6d284780841c11e2"
            "9a62ac33dbf2d8d4b7a130b69b4f8e9d2b29ba3a083762ffb5e12a6228e413a0"
            "8d");
}

TEST(GoldenWire, EcdsaSignature) {
  const auto kp = crypto::derive_keypair("golden/a");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("golden message"));
  EXPECT_EQ(to_hex(crypto::ecdsa_sign(kp.sk, msg)),
            "e1497ae1b82cbc95898153602bbcb4ea353996decca0e64d460cfc9d2c8fd424"
            "6330cc88cc2a51a817b55dedd84ca24b94396148e57fb71c1fcb8b41518035c5");
}

TEST(GoldenWire, AdaptorPreSignature) {
  const auto signer = crypto::derive_keypair("golden/a");
  const auto witness = crypto::derive_keypair("golden/b");
  const Hash256 msg = crypto::Sha256::hash(str_bytes("golden message"));
  const auto pre = crypto::adaptor_pre_sign(signer.sk, msg, witness.pk);
  EXPECT_EQ(to_hex(concat({pre.r_hat.compressed(), pre.s_hat.to_be_bytes()})),
            "02ad08853a901a789d510dd5ffa1a6caf2f3140f56cb7444de56fcd4e169158e"
            "dc44aa90b61818ba4efa1ebce9e30a34cdfc966f5adc62b9b18a6d7bd2d81e90"
            "d8");
}

TEST(GoldenWire, DaricUpdateCommit) {
  sim::Environment env(2, crypto::schnorr_scheme());
  channel::ChannelParams p;
  p.id = "golden";
  p.cash_a = 60'000;
  p.cash_b = 40'000;
  p.t_punish = 6;
  daricch::DaricChannel ch(env, p);
  ASSERT_TRUE(ch.create());
  ASSERT_TRUE(ch.update({55'000, 45'000, {}}));
  const auto& commits = ch.archived_commits(sim::PartyId::kA);
  ASSERT_EQ(commits.size(), 2u);
  EXPECT_EQ(to_hex(commits[1].txid().view()),
            "178e8ee4cac84cd81c3fa7684ff935a2b66ac33ff6126ed7427367fa470e39c8");
  // The witness carries both parties' signatures; hash it all.
  EXPECT_EQ(to_hex(crypto::Sha256::hash(tx::serialize_full(commits[1])).view()),
            "971b238960f035c0c0e329414c898228daa0d9464fcb0cb4d9ebd2734833486e");
}

}  // namespace
}  // namespace daric
