// Byte-exact equivalence of the per-channel template skeleton cache
// (src/daric/skeleton.h) with the from-scratch builders, across state
// numbers, balances and HTLC counts — plus the SighashCache invalidation
// contract the patched skeletons rely on.
#include <gtest/gtest.h>

#include "src/channel/htlc.h"
#include "src/crypto/keys.h"
#include "src/crypto/sha256.h"
#include "src/daric/skeleton.h"
#include "src/tx/serializer.h"
#include "src/tx/sighash.h"

namespace daric {
namespace {

using daricch::TemplateCache;

channel::ChannelParams make_params(std::uint32_t s0 = 0) {
  channel::ChannelParams p;
  p.id = "skel-test";
  p.cash_a = 600'000;
  p.cash_b = 400'000;
  p.t_punish = 9;
  p.s0 = s0;
  return p;
}

daricch::DaricPubKeys pubs(const char* who) {
  return daricch::to_pub(daricch::DaricKeys::derive(who, "skel-test"));
}

tx::OutPoint outpoint(Byte tag, std::uint32_t vout = 0) {
  return {crypto::Sha256::hash(Bytes{tag}), vout};
}

void expect_same_tx(const tx::Transaction& got, const tx::Transaction& want) {
  EXPECT_EQ(tx::serialize_base(got), tx::serialize_base(want));
}

TEST(SkeletonCache, CommitMatchesBuilderAcrossStates) {
  const auto p = make_params(1000);
  const auto a = pubs("A"), b = pubs("B");
  TemplateCache cache(p, a, b);
  const tx::OutPoint op = outpoint(1);
  // Non-monotone sequence: the cache must also patch "backwards".
  for (const std::uint32_t state : {0u, 1u, 2u, 9u, 100u, 3u}) {
    const Amount cash = 1'000'000 + state;
    const daricch::CommitPair& got = cache.commit(op, cash, state);
    const daricch::CommitPair want = gen_commit(op, cash, a, b, state, p);
    expect_same_tx(got.body_a, want.body_a);
    expect_same_tx(got.body_b, want.body_b);
    EXPECT_TRUE(got.script_a == want.script_a) << "state " << state;
    EXPECT_TRUE(got.script_b == want.script_b) << "state " << state;
  }
}

TEST(SkeletonCache, CommitTracksFundingOutpoint) {
  const auto p = make_params();
  const auto a = pubs("A"), b = pubs("B");
  TemplateCache cache(p, a, b);
  cache.commit(outpoint(1), 500, 0);
  const tx::OutPoint op2 = outpoint(2, 3);
  const daricch::CommitPair& got = cache.commit(op2, 700, 0);
  const daricch::CommitPair want = gen_commit(op2, 700, a, b, 0, p);
  expect_same_tx(got.body_a, want.body_a);
  expect_same_tx(got.body_b, want.body_b);
}

TEST(SkeletonCache, SplitMatchesBuilderAcrossBalancesAndHtlcs) {
  const auto p = make_params(7);
  const auto a = pubs("A"), b = pubs("B");
  TemplateCache cache(p, a, b);
  const auto secret = channel::make_htlc_secret("skel-h");

  std::vector<channel::StateVec> states;
  states.push_back({600'000, 400'000, {}});
  states.push_back({1, 999'999, {}});  // balances move, same (empty) HTLC set
  for (const int m : {1, 3, 16}) {
    channel::StateVec st{500'000, 500'000, {}};
    for (int k = 0; k < m; ++k) {
      st.htlcs.push_back({1'000 + k, secret.payment_hash, k % 2 == 0,
                          static_cast<std::uint32_t>(5 + k)});
      st.to_a -= st.htlcs.back().cash;
    }
    states.push_back(st);
  }
  states.push_back({300'000, 700'000, {}});  // HTLC set shrinks back to empty

  std::uint32_t state_number = 0;
  for (const channel::StateVec& st : states) {
    const tx::Transaction& got = cache.split(st, state_number);
    const tx::Transaction want = gen_split(st, state_number, p, a, b);
    expect_same_tx(got, want);
    ++state_number;
  }
}

TEST(SkeletonCache, RevokeMatchesBuilderForBothPayouts) {
  const auto p = make_params(42);
  const auto a = pubs("A"), b = pubs("B");
  TemplateCache cache(p, a, b);
  for (const std::uint32_t revoked : {0u, 1u, 17u, 2u}) {
    const Amount cash = 900'000 + revoked;
    expect_same_tx(cache.revoke(true, cash, revoked),
                   daricch::gen_revoke(a.main, cash, revoked, p));
    expect_same_tx(cache.revoke(false, cash, revoked),
                   daricch::gen_revoke(b.main, cash, revoked, p));
  }
}

// --- SighashCache invalidation contract -------------------------------------

TEST(SighashCacheInvalidate, FreshDigestAfterMutateAndInvalidate) {
  const auto p = make_params();
  const auto a = pubs("A"), b = pubs("B");
  tx::Transaction t = gen_split({600'000, 400'000, {}}, 4, p, a, b);

  tx::SighashCache cache(t);
  const auto flag = script::SighashFlag::kAllAnyPrevOut;
  EXPECT_EQ(cache.digest(0, flag), tx::sighash_digest(t, 0, flag));
  EXPECT_EQ(cache.generation(), 0u);

  // Patch the body the way the template skeletons do, then invalidate: the
  // cache must serve the new digest (debug builds would throw on a stale
  // read; release builds would silently return the old digest without the
  // invalidate call).
  t.nlocktime = 999;
  t.outputs[0].cash -= 1;
  cache.invalidate();
  EXPECT_EQ(cache.generation(), 1u);
  EXPECT_EQ(cache.digest(0, flag), tx::sighash_digest(t, 0, flag));
}

#ifndef NDEBUG
// The staleness tripwire only exists with assertions on (tools/check.sh runs
// this suite in a Debug build for that reason).
TEST(SighashCacheInvalidate, DebugBuildThrowsOnStaleRead) {
  const auto p = make_params();
  const auto a = pubs("A"), b = pubs("B");
  tx::Transaction t = gen_split({600'000, 400'000, {}}, 4, p, a, b);
  tx::SighashCache cache(t);
  const auto flag = script::SighashFlag::kAllAnyPrevOut;
  cache.digest(0, flag);
  t.nlocktime = 999;  // mutated without invalidate()
  EXPECT_THROW(cache.digest(0, flag), std::logic_error);
}
#endif

TEST(SighashCacheInvalidate, MutateInvalidateResign) {
  const auto p = make_params();
  const auto a = pubs("A"), b = pubs("B");
  const auto& scheme = crypto::schnorr_scheme();
  const auto kp = crypto::derive_keypair("skel-resign");
  tx::Transaction t = gen_split({600'000, 400'000, {}}, 1, p, a, b);

  tx::SighashCache cache(t);
  const auto flag = script::SighashFlag::kAllAnyPrevOut;
  const Bytes sig1 = tx::sign_input(t, 0, kp, scheme, flag, &cache);

  t.nlocktime = 1234;  // state patch
  cache.invalidate();
  const Bytes sig2 = tx::sign_input(t, 0, kp, scheme, flag, &cache);

  // Both signatures verify against the digest of the body as it was when
  // each was produced — the second one covers the mutated body.
  const auto dec2 = script::decode_wire_sig(sig2, scheme.signature_size());
  ASSERT_TRUE(dec2.has_value());
  EXPECT_TRUE(scheme.verify(kp.pk, tx::sighash_digest(t, 0, flag), dec2->raw));
  const auto dec1 = script::decode_wire_sig(sig1, scheme.signature_size());
  ASSERT_TRUE(dec1.has_value());
  EXPECT_FALSE(scheme.verify(kp.pk, tx::sighash_digest(t, 0, flag), dec1->raw));
}

}  // namespace
}  // namespace daric
