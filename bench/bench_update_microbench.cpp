// Microbenchmarks (google-benchmark): crypto primitives and whole channel
// updates. Backs the paper's "unlimited lifetime given at most one update
// per second" claim — a full Daric update must take far less than 1 s.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "bench/bench_main.h"

#include "src/channel/registry.h"
#include "src/crypto/ecdsa.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"
#include "src/daric/protocol.h"

namespace {

using namespace daric;  // NOLINT

// `tools/check.sh --bench` divides machine-speed drift out of its gates with
// BM_Sha256_1k, so the anchor must time code that no optimization touches.
// It hashes with this frozen copy of the portable streaming SHA-256 (the
// library's own Sha256 dispatches to SHA-NI and pads in one step), keeping
// the cost per unit of machine speed the same from run to run.
namespace frozen {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) { return x >> n | x << (32 - n); }

class Sha256 {
 public:
  Sha256& update(BytesView data) {
    total_len_ += data.size();
    std::size_t off = 0;
    if (buffer_len_ != 0) {
      const std::size_t take = std::min<std::size_t>(64 - buffer_len_, data.size());
      std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
      buffer_len_ += take;
      off = take;
      if (buffer_len_ == 64) {
        process_block(buffer_.data());
        buffer_len_ = 0;
      }
    }
    while (off + 64 <= data.size()) {
      process_block(data.data() + off);
      off += 64;
    }
    if (off < data.size()) {
      std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
      buffer_len_ = data.size() - off;
    }
    return *this;
  }

  Hash256 finalize() {
    const std::uint64_t bit_len = total_len_ * 8;
    const Byte pad1 = 0x80;
    update({&pad1, 1});
    const Byte zero = 0;
    while (buffer_len_ != 56) update({&zero, 1});
    Byte len_be[8];
    for (int i = 0; i < 8; ++i) len_be[i] = static_cast<Byte>(bit_len >> (56 - i * 8));
    update({len_be, 8});
    Hash256 out;
    for (std::size_t i = 0; i < 32; ++i) out.data[i] = static_cast<Byte>(state_[i / 4] >> (24 - 8 * (i % 4)));
    return out;
  }

 private:
  // Out of line, like a library call, so the copy's cost matches the
  // streaming hasher it was taken from.
  __attribute__((noinline)) void process_block(const Byte* p) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(p[i * 4]) << 24 |
             static_cast<std::uint32_t>(p[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(p[i * 4 + 2]) << 8 | p[i * 4 + 3];
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ w[i - 15] >> 3;
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ w[i - 2] >> 10;
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
  }

  std::array<std::uint32_t, 8> state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::array<Byte, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

}  // namespace frozen

void BM_Sha256_1k(benchmark::State& state) {
  const Bytes data(1024, 0xab);
  if (frozen::Sha256().update(data).finalize() != crypto::Sha256::hash(data)) {
    state.SkipWithError("the frozen SHA-256 copy disagrees with crypto::Sha256");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(frozen::Sha256().update(data).finalize());
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
void channel_update_bench(benchmark::State& state, const char* engine, const std::string& id) {
  sim::Environment env(2, crypto::schnorr_scheme());
  const auto ch = channel::make_engine(engine, env, bench_params(id));
  ch->create();
  Amount i = 0;
  for (auto _ : state) {
    ch->update({400'000 + (i % 1000), 600'000 - (i % 1000), {}});
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_DaricUpdate(benchmark::State& state) {
  channel_update_bench(state, "daric", "bench-daric");
}
BENCHMARK(BM_DaricUpdate)->Unit(benchmark::kMicrosecond);

void BM_EltooUpdate(benchmark::State& state) {
  channel_update_bench(state, "eltoo", "bench-eltoo");
}
BENCHMARK(BM_EltooUpdate)->Unit(benchmark::kMicrosecond);

void BM_LightningUpdate(benchmark::State& state) {
  channel_update_bench(state, "lightning", "bench-ln");
}
BENCHMARK(BM_LightningUpdate)->Unit(benchmark::kMicrosecond);

void BM_GeneralizedUpdate(benchmark::State& state) {
  channel_update_bench(state, "generalized", "bench-gc");
}
BENCHMARK(BM_GeneralizedUpdate)->Unit(benchmark::kMicrosecond);

void BM_CerberusUpdate(benchmark::State& state) {
  channel_update_bench(state, "cerberus", "bench-cb");
}
BENCHMARK(BM_CerberusUpdate)->Unit(benchmark::kMicrosecond);

void BM_FppwUpdate(benchmark::State& state) {
  channel_update_bench(state, "fppw", "bench-fppw");
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
