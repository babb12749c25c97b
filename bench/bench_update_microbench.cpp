// Microbenchmarks (google-benchmark): crypto primitives and whole channel
// updates. Backs the paper's "unlimited lifetime given at most one update
// per second" claim — a full Daric update must take far less than 1 s.
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "src/cerberus/protocol.h"
#include "src/crypto/ecdsa.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/daric/protocol.h"
#include "src/eltoo/protocol.h"
#include "src/fppw/protocol.h"
#include "src/generalized/protocol.h"
#include "src/lightning/protocol.h"

namespace {

using namespace daric;  // NOLINT

void BM_Sha256_1k(benchmark::State& state) {
  const Bytes data(1024, 0xab);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::hash(data));
}
BENCHMARK(BM_Sha256_1k);

void BM_SchnorrSign(benchmark::State& state) {
  const auto kp = crypto::derive_keypair("bench");
  const Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  for (auto _ : state) benchmark::DoNotOptimize(crypto::schnorr_sign(kp.sk, msg));
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const auto kp = crypto::derive_keypair("bench");
  const Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  const Bytes sig = crypto::schnorr_sign(kp.sk, msg);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::schnorr_verify(kp.pk, msg, sig));
}
BENCHMARK(BM_SchnorrVerify);

void BM_EcdsaSign(benchmark::State& state) {
  const auto kp = crypto::derive_keypair("bench");
  const Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ecdsa_sign(kp.sk, msg));
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto kp = crypto::derive_keypair("bench");
  const Hash256 msg = crypto::Sha256::hash(Bytes{1, 2, 3});
  const Bytes sig = crypto::ecdsa_sign(kp.sk, msg);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ecdsa_verify(kp.pk, msg, sig));
}
BENCHMARK(BM_EcdsaVerify);

channel::ChannelParams bench_params(const std::string& id) {
  channel::ChannelParams p;
  p.id = id;
  p.cash_a = 500'000;
  p.cash_b = 500'000;
  p.t_punish = 6;
  return p;
}

// One full channel update (all messages, signatures and verifications for
// both parties). Throughput >> 1/s validates the unlimited-lifetime claim.
template <typename Channel, typename... Extra>
void channel_update_bench(benchmark::State& state, const std::string& id, Extra... extra) {
  sim::Environment env(2, crypto::schnorr_scheme());
  Channel ch(env, bench_params(id), extra...);
  ch.create();
  Amount i = 0;
  for (auto _ : state) {
    ch.update({400'000 + (i % 1000), 600'000 - (i % 1000), {}});
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_DaricUpdate(benchmark::State& state) {
  channel_update_bench<daricch::DaricChannel>(state, "bench-daric");
}
BENCHMARK(BM_DaricUpdate)->Unit(benchmark::kMicrosecond);

void BM_EltooUpdate(benchmark::State& state) {
  channel_update_bench<eltoo::EltooChannel>(state, "bench-eltoo");
}
BENCHMARK(BM_EltooUpdate)->Unit(benchmark::kMicrosecond);

void BM_LightningUpdate(benchmark::State& state) {
  channel_update_bench<lightning::LightningChannel>(state, "bench-ln");
}
BENCHMARK(BM_LightningUpdate)->Unit(benchmark::kMicrosecond);

void BM_GeneralizedUpdate(benchmark::State& state) {
  channel_update_bench<generalized::GeneralizedChannel>(state, "bench-gc");
}
BENCHMARK(BM_GeneralizedUpdate)->Unit(benchmark::kMicrosecond);

void BM_CerberusUpdate(benchmark::State& state) {
  channel_update_bench<cerberus::CerberusChannel>(state, "bench-cb", Amount{5'000});
}
BENCHMARK(BM_CerberusUpdate)->Unit(benchmark::kMicrosecond);

void BM_FppwUpdate(benchmark::State& state) {
  channel_update_bench<fppw::FppwChannel>(state, "bench-fppw");
}
BENCHMARK(BM_FppwUpdate)->Unit(benchmark::kMicrosecond);

// Daric update with m HTLC outputs: ops stay flat, serialization grows.
void BM_DaricUpdateWithHtlcs(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  sim::Environment env(2, crypto::schnorr_scheme());
  daricch::DaricChannel ch(env, bench_params("bench-daric-m" + std::to_string(m)));
  ch.create();
  const auto secret = channel::make_htlc_secret("bench-h");
  channel::StateVec st{500'000, 500'000, {}};
  for (int k = 0; k < m; ++k) {
    st.htlcs.push_back({1'000, secret.payment_hash, k % 2 == 0, 5});
    st.to_a -= 1'000;
  }
  Amount i = 0;
  for (auto _ : state) {
    channel::StateVec next = st;
    next.to_a -= i % 100;
    next.to_b += i % 100;
    ch.update(next);
    ++i;
  }
  // items_per_second == updates/s, uniform with every other *Update* bench.
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_DaricUpdateWithHtlcs)->Arg(0)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace

DARIC_BENCHMARK_MAIN();
