// Properties every registry engine must keep, checked through the one
// channel::Engine interface: each signature on the lifecycle paths goes
// through the keypair signing path, a destroyed channel leaves no round hook
// behind on its Environment, and the shared send path retries dropped
// messages and aborts to force-close when the peer stays silent.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "src/channel/registry.h"

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

channel::ChannelParams params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  return p;
}

bool conserved(const ledger::Ledger& l) {
  return l.utxos().total_value() + l.fees_total() == l.minted_total();
}

/// Drops transmit attempts: each message's first attempt (every other
/// attempt, starting with the first), or — once `silent` — all of them.
class DropInjector final : public sim::FaultInjector {
 public:
  bool drop_first_attempts = false;
  bool silent = false;

  sim::MessageAction on_message(Round, PartyId, const std::string&) override {
    first_ = !first_;
    if (silent || (drop_first_attempts && first_)) return {sim::MessageFate::kDrop, 0};
    return {};
  }
  Round post_delay(Round, Round) override { return 0; }

 private:
  bool first_ = false;
};

enum class Ending { kCooperative, kForce, kRevokedPublish };

/// Ends the channel as asked, runs it until it resolved and checks the
/// verdict. A revoked publish ends punished (eltoo: overridden and settled
/// at the latest state).
bool end_channel(channel::Engine& ch, Ending ending) {
  switch (ending) {
    case Ending::kCooperative: ch.cooperative_close(PartyId::kA); break;
    case Ending::kForce: ch.force_close(PartyId::kA); break;
    case Ending::kRevokedPublish: ch.publish_revoked(PartyId::kA, 0); break;
  }
  if (!ch.run_until_closed()) return false;
  const channel::Verdict v = ch.verdict();
  switch (ending) {
    case Ending::kCooperative: return v == channel::Verdict::kCooperative;
    case Ending::kForce: return v == channel::Verdict::kForceClosed;
    case Ending::kRevokedPublish:
      return v == channel::Verdict::kPunished || v == channel::Verdict::kOverridden;
  }
  return false;
}

class Engines : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<channel::Engine> make(sim::Environment& env, const std::string& id) {
    return channel::make_engine(GetParam(), env, params(id));
  }
};

INSTANTIATE_TEST_SUITE_P(Registry, Engines, ::testing::ValuesIn(channel::engine_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Create, update, and each of the three endings (punish included) sign
// only with keypairs: no engine may drift back to the secret-key path.
TEST_P(Engines, LifecycleNeverSignsWithBareSecretKey) {
  for (const Ending ending : {Ending::kCooperative, Ending::kForce, Ending::kRevokedPublish}) {
    const SecretKeySignCounter scheme;
    sim::Environment env(kDelta, scheme);
    auto ch = make(env, "hot-" + std::to_string(static_cast<int>(ending)));
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
TEST_P(Engines, DestroyedChannelLeavesNoRoundHook) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  auto survivor = make(env, "hooks-survivor");
  ASSERT_TRUE(survivor->create());
  {
    auto gone = make(env, "hooks-gone");
    ASSERT_TRUE(gone->create());
    ASSERT_TRUE(gone->update(StateVec{450'000, 550'000, {}}));
  }
  env.advance_rounds(10);
  ASSERT_TRUE(survivor->update(StateVec{450'000, 550'000, {}}));
  EXPECT_TRUE(end_channel(*survivor, Ending::kForce));
}

// The shared send path re-sends a dropped message: losing the first attempt
// of every message costs retries, never the update.
TEST_P(Engines, DroppedFirstAttemptsAreRetried) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  DropInjector inj;
  inj.drop_first_attempts = true;
  env.set_fault_injector(&inj);
  auto ch = make(env, "retry");
  ASSERT_TRUE(ch->create());
  const obs::Counter& retries = env.metrics().counter(GetParam() + ".msg.retries");
  const std::uint64_t before = retries.value();
  ASSERT_TRUE(ch->update(StateVec{450'000, 550'000, {}}));
  EXPECT_GT(retries.value(), before);
  EXPECT_EQ(ch->state_number(), 1u);
  EXPECT_EQ(env.metrics().counter("sim.msg.dropped").value(),
            env.metrics().counter("sim.msg.delivered").value());
}

// A peer silent past the retry budget: the update fails and the channel
// force-closes at the state both parties held before it.
TEST_P(Engines, SilentPeerAbortsToPreUpdateState) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  DropInjector inj;
  env.set_fault_injector(&inj);
  auto ch = make(env, "silent");
  ASSERT_TRUE(ch->create());
  ASSERT_TRUE(ch->update(StateVec{450'000, 550'000, {}}));
  inj.silent = true;
  EXPECT_FALSE(ch->update(StateVec{300'000, 700'000, {}}));
  EXPECT_TRUE(ch->closed());
  EXPECT_EQ(ch->verdict(), channel::Verdict::kForceClosed);
  EXPECT_EQ(ch->state_number(), 1u);
  EXPECT_TRUE(conserved(env.ledger()));
}

TEST(EngineRegistry, MakesEveryEngineAndRejectsUnknownNames) {
  sim::Environment env(kDelta, crypto::schnorr_scheme());
  const std::vector<std::string> names = channel::engine_names();
  EXPECT_EQ(names.size(), 6u);
  for (const std::string& name : names) {
    const auto ch = channel::make_engine(name, env, params("registry-" + name));
    ASSERT_NE(ch, nullptr) << name;
    EXPECT_EQ(ch->name(), name);
  }
  EXPECT_THROW(channel::make_engine("nosuch", env, params("x")), std::invalid_argument);
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
