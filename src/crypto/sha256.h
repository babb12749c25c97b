// SHA-256 (FIPS 180-4) and the double-SHA256 used for txids.
//
// The block compression runs on the SHA-NI instructions when the CPU has
// them (x86-64 with SHA and SSE4.1, checked once per process) and on the
// portable implementation otherwise.
#pragma once

#include "src/util/bytes.h"

namespace daric::crypto {

class Sha256 {
 public:
  Sha256();
  Sha256& update(BytesView data);
  Hash256 finalize();  // object must not be reused afterwards

  static Hash256 hash(BytesView data);
  /// Bitcoin's HASH256: SHA256(SHA256(data)).
  static Hash256 double_hash(BytesView data);
  /// BIP340-style tagged hash: SHA256(SHA256(tag)||SHA256(tag)||data).
  static Hash256 tagged(std::string_view tag, BytesView data);
  /// Streaming variant: a hasher already fed SHA256(tag)||SHA256(tag).
  /// Copies of the returned object serve as reusable midstates.
  static Sha256 tagged_init(std::string_view tag);

 private:
  /// Compresses `n` consecutive 64-byte blocks into the state.
  void process_blocks(const Byte* blocks, std::size_t n);
  std::array<std::uint32_t, 8> state_;
  std::array<Byte, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

namespace detail {
// The two compression functions, exposed so tests can compare them. Each
// folds `n` consecutive 64-byte blocks into the eight-word state.
void sha256_compress_portable(std::uint32_t* state, const Byte* blocks, std::size_t n);
#if defined(__x86_64__)
/// Only valid where sha256_shani_supported() holds.
void sha256_compress_shani(std::uint32_t* state, const Byte* blocks, std::size_t n);
#endif
/// Whether this CPU has the SHA and SSE4.1 instruction sets.
bool sha256_shani_supported();
}  // namespace detail

}  // namespace daric::crypto
