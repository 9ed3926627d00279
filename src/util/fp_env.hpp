#pragma once
// The calling thread's floating-point control word, and a scoped guard that
// flushes subnormal inputs and results to zero (FTZ|DAZ): MXCSR 0x8040 on
// x86-64, FPCR.FZ on aarch64, a no-op elsewhere. Flushing is deterministic,
// so threads running under the same word compute the same bits.

#include <cstdint>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace awp {

using FpControlWord = std::uint64_t;

#if defined(__x86_64__)
// MXCSR bits 0-5 are sticky exception flags, not modes: the word read and
// written here is the mode bits alone, and the flags are left to accrue.
inline constexpr FpControlWord kFpStatusBits = 0x3f;
inline constexpr FpControlWord kFlushDenormalsBits = 0x8040;
inline FpControlWord fpControlWord() { return _mm_getcsr() & ~kFpStatusBits; }
inline void setFpControlWord(FpControlWord w) {
  _mm_setcsr(static_cast<unsigned>((_mm_getcsr() & kFpStatusBits) | w));
}
#elif defined(__aarch64__)
inline constexpr FpControlWord kFlushDenormalsBits = FpControlWord{1} << 24;
inline FpControlWord fpControlWord() {
  FpControlWord w = 0;
  __asm__ __volatile__("mrs %0, fpcr" : "=r"(w));
  return w;
}
inline void setFpControlWord(FpControlWord w) {
  __asm__ __volatile__("msr fpcr, %0" : : "r"(w));
}
#else
inline constexpr FpControlWord kFlushDenormalsBits = 0;
inline FpControlWord fpControlWord() { return 0; }
inline void setFpControlWord(FpControlWord) {}
#endif

// Runs the enclosing scope under `word`; restores the previous word on
// exit, exceptions included.
class ScopedFpControlWord {
 public:
  explicit ScopedFpControlWord(FpControlWord word) : saved_(fpControlWord()) {
    setFpControlWord(word);
  }
  ~ScopedFpControlWord() { setFpControlWord(saved_); }
  ScopedFpControlWord(const ScopedFpControlWord&) = delete;
  ScopedFpControlWord& operator=(const ScopedFpControlWord&) = delete;

 private:
  FpControlWord saved_;
};

// Runs the enclosing scope with subnormals flushed.
class ScopedFlushDenormals : public ScopedFpControlWord {
 public:
  ScopedFlushDenormals()
      : ScopedFpControlWord(fpControlWord() | kFlushDenormalsBits) {}
};

}  // namespace awp
