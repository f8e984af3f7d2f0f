// Vectorized tokenization for the text workloads. It lives in dfs, not in
// workloads, because the shared scan splits a chunk's records into words
// once for all of a merged map task's members (reader.h, ChunkSplit's word
// table), and dfs sits below workloads in the link order. The corpus
// delimiter is exactly one byte — ' ' (0x20, see text_corpus.cpp) — so a
// window of input reduces to a space bitmask, and every word boundary in
// the window falls out of bit operations on that mask. Corpus words average
// ~6 bytes, so the wide paths compute each window's mask ONCE and walk all
// of its boundaries from the cached bits; a scan-per-boundary design would
// reload and recompare the same window ~4 times per 16 bytes. Three
// implementations share the semantics:
//
//   kScalar  byte-at-a-time loop (the original for_each_word; the oracle)
//   kSwar    8-byte windows via a uint64 load and an exact zero-byte
//            detector on v ^ 0x2020...: ~(((v & 0x7F7F..) + 0x7F7F..) | v
//            | 0x7F7F..) flags exactly the zero bytes
//   kSimd    16-byte windows via SSE2 _mm_cmpeq_epi8 + movemask
//
// kAuto (the default) picks the widest path compiled in. All three are
// proven byte-identical by the differential tests (tokenize_test.cpp),
// including end-to-end through all three schedulers. set_tokenize_mode
// exists for those tests and for benchmarking the paths against each other;
// production code never calls it. The mode applies to the shared word split
// too, since ChunkSplit calls the same for_each_word. The '|' field split of
// the TPC-H rows is not a tokenizer mode: it is one loop in reader.h
// (ChunkSplit::append_fields), for the shared table and the in-place path
// alike.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#define S3_TOKENIZE_HAVE_SSE2 1
#endif

namespace s3::dfs {

enum class TokenizeMode { kAuto, kScalar, kSwar, kSimd };

namespace detail {

inline std::atomic<TokenizeMode>& tokenize_mode_slot() {
  static std::atomic<TokenizeMode> mode{TokenizeMode::kAuto};
  return mode;
}

inline constexpr char kDelim = ' ';
inline constexpr std::uint64_t kDelimBroadcast = 0x2020202020202020ULL;
inline constexpr std::uint64_t kLowSeven = 0x7F7F7F7F7F7F7F7FULL;
inline constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

// Bitmask with bit 8b+7 set iff byte b of `word` is exactly zero, and no
// other bits set. Per byte, (x & 0x7F) + 0x7F carries into bit 7 iff the
// low seven bits are nonzero, and OR-ing x back in catches bit 7 itself;
// byte sums top out at 0xFE, so lanes never carry into each other. The
// textbook (x - 0x0101..) & ~x & 0x8080.. detector is NOT exact: its
// subtraction borrows across lanes, so the byte above a true zero can be
// flagged when it isn't zero (e.g. '!' ^ ' ' = 0x01 right after a space),
// which is a correctness bug for a boundary-walking tokenizer.
[[nodiscard]] inline std::uint64_t zero_byte_flags(std::uint64_t word) {
  return ~(((word & kLowSeven) + kLowSeven) | word | kLowSeven);
}

[[nodiscard]] inline std::uint64_t load_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline constexpr std::size_t kNoWord = ~std::size_t{0};

// The scalar word loop, resumable: `start` carries an in-progress word
// (kNoWord if between words) so the wide paths can hand their sub-window
// tails here without re-scanning. The trailing word is emitted on exit.
template <typename Fn>
void tokenize_scalar_from(std::string_view line, std::size_t i,
                          std::size_t start, Fn&& fn) {
  const std::size_t n = line.size();
  for (; i < n; ++i) {
    if (start == kNoWord) {
      if (line[i] != kDelim) start = i;
    } else if (line[i] == kDelim) {
      fn(line.substr(start, i - start));
      start = kNoWord;
    }
  }
  if (start != kNoWord) fn(line.substr(start));
}

// SWAR tokenizer: one load + zero-byte detect per 8-byte window, then all
// word boundaries inside the window are walked with bit operations on the
// cached flag word — the window is never re-read, unlike a scan-per-word
// loop which reloads it for every boundary. `flags` has bit 8b+7 set iff
// window byte b is a space; masking with (~0 << 8*pos) discards consumed
// bytes and ctz>>3 turns the lowest surviving flag back into a byte index.
template <typename Fn>
void tokenize_swar(std::string_view line, Fn&& fn) {
  const char* d = line.data();
  const std::size_t n = line.size();
  std::size_t base = 0;
  std::size_t start = kNoWord;
  while (base + 8 <= n) {
    const std::uint64_t space =
        zero_byte_flags(load_u64(d + base) ^ kDelimBroadcast);
    std::size_t pos = 0;
    while (pos < 8) {
      const std::uint64_t live = ~std::uint64_t{0} << (8 * pos);
      if (start == kNoWord) {
        const std::uint64_t word_bits = ~space & kHighBits & live;
        if (word_bits == 0) break;
        start = base + (static_cast<std::size_t>(
                            __builtin_ctzll(word_bits)) >> 3);
        pos = start - base;
      } else {
        const std::uint64_t space_bits = space & live;
        if (space_bits == 0) break;
        const std::size_t end =
            base +
            (static_cast<std::size_t>(__builtin_ctzll(space_bits)) >> 3);
        fn(line.substr(start, end - start));
        start = kNoWord;
        pos = end - base + 1;
      }
    }
    base += 8;
  }
  tokenize_scalar_from(line, base, start, fn);
}

#if defined(S3_TOKENIZE_HAVE_SSE2)
// SSE2 tokenizer: same single-pass structure as tokenize_swar with a
// 16-byte window and a compact movemask (bit b = byte b is a space).
template <typename Fn>
void tokenize_simd(std::string_view line, Fn&& fn) {
  const char* d = line.data();
  const std::size_t n = line.size();
  const __m128i delim = _mm_set1_epi8(kDelim);
  std::size_t base = 0;
  std::size_t start = kNoWord;
  while (base + 16 <= n) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + base));
    const unsigned space =
        static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(chunk, delim)));
    std::size_t pos = 0;
    while (pos < 16) {
      const unsigned live = ~0u << pos;
      if (start == kNoWord) {
        const unsigned word_bits = ~space & 0xFFFFu & live;
        if (word_bits == 0) break;
        pos = static_cast<std::size_t>(__builtin_ctz(word_bits));
        start = base + pos;
      } else {
        const unsigned space_bits = space & live;
        if (space_bits == 0) break;
        const std::size_t end =
            base + static_cast<std::size_t>(__builtin_ctz(space_bits));
        fn(line.substr(start, end - start));
        start = kNoWord;
        pos = end - base + 1;
      }
    }
    base += 16;
  }
  tokenize_scalar_from(line, base, start, fn);
}
#endif

}  // namespace detail

// Process-global override, for tests and benchmarks only.
inline void set_tokenize_mode(TokenizeMode mode) {
  detail::tokenize_mode_slot().store(mode, std::memory_order_relaxed);
}
[[nodiscard]] inline TokenizeMode tokenize_mode() {
  return detail::tokenize_mode_slot().load(std::memory_order_relaxed);
}

// The widest path the current mode resolves to on this build.
[[nodiscard]] inline TokenizeMode effective_tokenize_mode() {
  const TokenizeMode mode = tokenize_mode();
  if (mode != TokenizeMode::kAuto) return mode;
#if defined(S3_TOKENIZE_HAVE_SSE2)
  return TokenizeMode::kSimd;
#else
  return TokenizeMode::kSwar;
#endif
}

// Iterates the space-separated words of a record without copying: fn is
// called with a view into `line` for every maximal run of non-space bytes.
// Exactly equivalent to the scalar loop for every input, in every mode.
template <typename Fn>
void for_each_word(std::string_view line, Fn&& fn) {
  switch (tokenize_mode()) {
    case TokenizeMode::kScalar:
      detail::tokenize_scalar_from(line, 0, detail::kNoWord, fn);
      return;
    case TokenizeMode::kSwar:
      detail::tokenize_swar(line, fn);
      return;
    case TokenizeMode::kSimd:
    case TokenizeMode::kAuto:
#if defined(S3_TOKENIZE_HAVE_SSE2)
      detail::tokenize_simd(line, fn);
#else
      detail::tokenize_swar(line, fn);
#endif
      return;
  }
}

}  // namespace s3::dfs
