#include "src/crypto/sha256.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace daric::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

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

using CompressFn = void (*)(std::uint32_t*, const Byte*, std::size_t);

CompressFn pick_compress() {
#if defined(__x86_64__)
  if (detail::sha256_shani_supported()) return detail::sha256_compress_shani;
#endif
  return detail::sha256_compress_portable;
}

}  // namespace

void detail::sha256_compress_portable(std::uint32_t* state, const Byte* p, std::size_t n) {
  for (; n > 0; --n, p += 64) {
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
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
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
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

bool detail::sha256_shani_supported() {
  static const bool supported = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d) || (c & bit_SSE4_1) == 0) return false;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    return (b & bit_SHA) != 0;
  }();
  return supported;
}

// The SHA-NI round instruction works on the state split as ABEF and CDGH,
// two rounds per sha256rnds2; sha256msg1/msg2 extend the message schedule
// four words at a time.
__attribute__((target("sha,sse4.1"))) void detail::sha256_compress_shani(std::uint32_t* state,
                                                                       const Byte* p,
                                                                       std::size_t n) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; n > 0; --n, p += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    // w[j % 4] holds message words 4j..4j+3 for the group of four rounds j.
    __m128i w[4];
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i& cur = w[j % 4];
      if (j < 4) {
        cur = _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * j)),
                               byte_swap);
      } else {
        // W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
        cur = _mm_sha256msg1_epu32(cur, w[(j - 3) % 4]);
        cur = _mm_add_epi32(cur, _mm_alignr_epi8(w[(j - 1) % 4], w[(j - 2) % 4], 4));
        cur = _mm_sha256msg2_epu32(cur, w[(j - 1) % 4]);
      }
      const __m128i wk =
          _mm_add_epi32(cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * j)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#else

bool detail::sha256_shani_supported() { return false; }

#endif

Sha256::Sha256() { std::copy(std::begin(kInit), std::end(kInit), state_.begin()); }

void Sha256::process_blocks(const Byte* blocks, std::size_t n) {
  static const CompressFn compress = pick_compress();
  compress(state_.data(), blocks, n);
}

Sha256& Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ != 0) {
    const std::size_t take = std::min<std::size_t>(64 - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t whole = (data.size() - off) / 64;
  if (whole != 0) {
    process_blocks(data.data() + off, whole);
    off += whole * 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
  return *this;
}

Hash256 Sha256::finalize() {
  // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit
  // length — one extra block when the tail leaves no room for the length.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    process_blocks(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[static_cast<std::size_t>(56 + i)] = static_cast<Byte>(bit_len >> (56 - i * 8));
  process_blocks(buffer_.data(), 1);
  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.data[static_cast<std::size_t>(i * 4)] = static_cast<Byte>(state_[static_cast<std::size_t>(i)] >> 24);
    out.data[static_cast<std::size_t>(i * 4 + 1)] = static_cast<Byte>(state_[static_cast<std::size_t>(i)] >> 16);
    out.data[static_cast<std::size_t>(i * 4 + 2)] = static_cast<Byte>(state_[static_cast<std::size_t>(i)] >> 8);
    out.data[static_cast<std::size_t>(i * 4 + 3)] = static_cast<Byte>(state_[static_cast<std::size_t>(i)]);
  }
  return out;
}

Hash256 Sha256::hash(BytesView data) { return Sha256().update(data).finalize(); }

Hash256 Sha256::double_hash(BytesView data) { return hash(hash(data).view()); }

Hash256 Sha256::tagged(std::string_view tag, BytesView data) {
  Sha256 h = tagged_init(tag);
  h.update(data);
  return h.finalize();
}

Sha256 Sha256::tagged_init(std::string_view tag) {
  const Hash256 th = hash({reinterpret_cast<const Byte*>(tag.data()), tag.size()});
  Sha256 h;
  h.update(th.view()).update(th.view());
  return h;
}

}  // namespace daric::crypto
