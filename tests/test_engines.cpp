// Properties every one of the six channel engines must keep: each signature
// on the lifecycle paths goes through the keypair signing path, and a
// destroyed channel leaves no round hook behind on its Environment.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "src/cerberus/protocol.h"
#include "src/daric/protocol.h"
#include "src/eltoo/protocol.h"
#include "src/fppw/protocol.h"
#include "src/generalized/protocol.h"
#include "src/lightning/protocol.h"

namespace daric {
namespace {

using channel::StateVec;
using sim::PartyId;

constexpr Round kDelta = 2;

/// Schnorr that counts signatures made from a bare secret key. Those
/// recompute P = sk·G and run the RFC 6979 chain; the engines sign with
/// the whole keypair instead (sign_with).
class SecretKeySignCounter final : public crypto::SignatureScheme {
 public:
  std::string name() const override { return inner_.name(); }
  std::size_t signature_size() const override { return inner_.signature_size(); }
  Bytes sign(const crypto::Scalar& sk, const Hash256& msg) const override {
    ++secret_key_signs;
    return inner_.sign(sk, msg);
  }
  Bytes sign_with(const crypto::KeyPair& kp, const Hash256& msg) const override {
    return inner_.sign_with(kp, msg);
  }
  bool verify(const crypto::Point& pk, const Hash256& msg, BytesView sig) const override {
    return inner_.verify(pk, msg, sig);
  }
  bool verify_cached(const crypto::PrecomputedPoint& pre, const Hash256& msg,
                     BytesView sig) const override {
    return inner_.verify_cached(pre, msg, sig);
  }
  bool supports_adaptor() const override { return inner_.supports_adaptor(); }
  bool supports_batch_verify() const override { return inner_.supports_batch_verify(); }
  bool verify_batch(std::span<const crypto::SigBatchItem> items) const override {
    return inner_.verify_batch(items);
  }

  mutable int secret_key_signs = 0;

 private:
  const crypto::SignatureScheme& inner_ = crypto::schnorr_scheme();
};

template <class Ch>
std::unique_ptr<Ch> make_channel(sim::Environment& env, const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  if constexpr (std::is_same_v<Ch, cerberus::CerberusChannel>)
    return std::make_unique<Ch>(env, p, 5'000);
  else
    return std::make_unique<Ch>(env, p);
}

enum class Ending { kCooperative, kForce, kRevokedPublish };

/// Ends the channel as asked and runs it until it resolved. A revoked
/// publish ends punished (eltoo: overridden and settled at the latest state).
template <class Ch>
bool end_channel(Ch& ch, Ending ending) {
  constexpr bool kDaric = std::is_same_v<Ch, daricch::DaricChannel>;
  switch (ending) {
    case Ending::kCooperative:
      ch.cooperative_close();
      break;
    case Ending::kForce:
      if constexpr (kDaric)
        ch.party(PartyId::kA).force_close();
      else
        ch.force_close(PartyId::kA);
      break;
    case Ending::kRevokedPublish:
      if constexpr (std::is_same_v<Ch, eltoo::EltooChannel>)
        ch.publish_old_update(PartyId::kA, 0);
      else
        ch.publish_old_commit(PartyId::kA, 0);
      break;
  }
  return ch.run_until_closed();
}

template <class Ch>
class Engines : public ::testing::Test {};

using EngineTypes =
    ::testing::Types<daricch::DaricChannel, lightning::LightningChannel, eltoo::EltooChannel,
                     generalized::GeneralizedChannel, cerberus::CerberusChannel,
                     fppw::FppwChannel>;
TYPED_TEST_SUITE(Engines, EngineTypes);

// Create, update, and each of the three endings (punish included) sign
// only with keypairs: no engine may drift back to the secret-key path.
TYPED_TEST(Engines, LifecycleNeverSignsWithBareSecretKey) {
  for (const Ending ending : {Ending::kCooperative, Ending::kForce, Ending::kRevokedPublish}) {
    const SecretKeySignCounter scheme;
    sim::Environment env(kDelta, scheme);
    auto ch = make_channel<TypeParam>(env, "hot-" + std::to_string(static_cast<int>(ending)));
    ASSERT_TRUE(ch->create());
    ASSERT_TRUE(ch->update(StateVec{450'000, 550'000, {}}));
    ASSERT_TRUE(ch->update(StateVec{300'000, 700'000, {}}));
    ASSERT_TRUE(end_channel(*ch, ending)) << "ending " << static_cast<int>(ending);
    EXPECT_EQ(scheme.secret_key_signs, 0) << "ending " << static_cast<int>(ending);
  }
}

// A channel destroyed while its Environment keeps advancing must take its
// round hooks with it (a dangling hook is a use-after-free under ASan), and
// only its own: a second channel on the same Environment still resolves.
TYPED_TEST(Engines, DestroyedChannelLeavesNoRoundHook) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  auto survivor = make_channel<TypeParam>(env, "hooks-survivor");
  ASSERT_TRUE(survivor->create());
  {
    auto gone = make_channel<TypeParam>(env, "hooks-gone");
    ASSERT_TRUE(gone->create());
    ASSERT_TRUE(gone->update(StateVec{450'000, 550'000, {}}));
  }
  env.advance_rounds(10);
  ASSERT_TRUE(survivor->update(StateVec{450'000, 550'000, {}}));
  EXPECT_TRUE(end_channel(*survivor, Ending::kForce));
}

TEST(RoundHooks, RemovedWhenDestroyed) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  int kept = 0, scoped = 0;
  sim::RoundHooks keep(env);
  keep.add([&kept] { ++kept; });
  {
    sim::RoundHooks hooks(env);
    hooks.add([&scoped] { ++scoped; });
    env.advance_round();
  }
  env.advance_rounds(3);
  EXPECT_EQ(kept, 4);
  EXPECT_EQ(scoped, 1);
}

}  // namespace
}  // namespace daric
