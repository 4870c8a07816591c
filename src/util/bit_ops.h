// Bit-manipulation helpers shared across the library.
//
// Dyadic intervals are bitstrings (paper, Definition 3.2); every geometric
// operation on them reduces to word-level prefix arithmetic implemented here.
#ifndef TETRIS_UTIL_BIT_OPS_H_
#define TETRIS_UTIL_BIT_OPS_H_

#include <cstdint>

namespace tetris {

/// A mask with the low `len` bits set. len must be in [0, 63].
inline uint64_t LowMask(int len) {
  return (uint64_t{1} << len) - 1;
}

/// True iff the length-`plen` bitstring `p` is a prefix of the
/// length-`slen` bitstring `s` (both stored right-aligned).
inline bool IsBitPrefix(uint64_t p, int plen, uint64_t s, int slen) {
  if (plen > slen) return false;
  return (s >> (slen - plen)) == p;
}

/// Index (0-based from the most significant end) of the first bit where two
/// equal-length bitstrings differ; `len` if equal.
inline int FirstDiffBit(uint64_t a, uint64_t b, int len) {
  uint64_t x = a ^ b;
  if (x == 0) return len;
  return len - (64 - __builtin_clzll(x));
}

}  // namespace tetris

#endif  // TETRIS_UTIL_BIT_OPS_H_
