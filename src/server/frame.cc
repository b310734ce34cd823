#include "src/server/frame.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace atk {
namespace server {
namespace {

// Slice-by-8 tables: table[0] is the classic bytewise table, table[k]
// advances a byte through k additional zero bytes, so eight input bytes
// fold into one table round.  Same polynomial, same CRC values — only the
// walk is wider.  This loop checksums inputs under 64 bytes (every frame
// header) and the tail the carry-less fold below leaves over.
std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

// Advances the raw (un-inverted) CRC register over `n` bytes.
uint32_t CrcSliceBy8(uint32_t crc, const unsigned char* p, size_t n) {
  static const std::array<std::array<uint32_t, 256>, 8> kTables = BuildCrcTables();
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xFF];
  }
  return crc;
}

#if defined(__x86_64__)
__m128i Load128(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// One fold step: both 64-bit halves of `x` times their constant in `k`,
// plus the next 128 bits of input.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold128(__m128i x, __m128i k,
                                                                __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009): four
// 128-bit lanes fold 64 bytes per round, collapse into one lane, fold the
// remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits with a Barrett
// step.  The constants are the paper's bit-reflected ones for the IEEE
// polynomial; the register is the same raw (un-inverted) CRC the
// slice-by-8 loop carries, so the two chain.  `n` must be a multiple of 16
// and at least 64.
__attribute__((target("pclmul,sse4.1"))) uint32_t CrcFoldPclmul(uint32_t crc,
                                                                const unsigned char* p,
                                                                size_t n) {
  alignas(16) static const uint64_t kK1K2[] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const uint64_t kK3K4[] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const uint64_t kK5K0[] = {0x0163cd6124, 0x0000000000};
  alignas(16) static const uint64_t kPoly[] = {0x01db710641, 0x01f7011641};
  __m128i x1 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK1K2));
  while (n >= 64) {
    x1 = Fold128(x1, k, Load128(p));
    x2 = Fold128(x2, k, Load128(p + 16));
    x3 = Fold128(x3, k, Load128(p + 32));
    x4 = Fold128(x4, k, Load128(p + 48));
    p += 64;
    n -= 64;
  }
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK3K4));
  x1 = Fold128(x1, k, x2);
  x1 = Fold128(x1, k, x3);
  x1 = Fold128(x1, k, x4);
  while (n >= 16) {
    x1 = Fold128(x1, k, Load128(p));
    p += 16;
    n -= 16;
  }
  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction to 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kPoly));
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

bool CpuHasPclmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif  // __x86_64__

void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

std::string_view FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kHelloAck:
      return "hello-ack";
    case FrameType::kEdit:
      return "edit";
    case FrameType::kUpdate:
      return "update";
    case FrameType::kSnapshotReq:
      return "snapshot-req";
    case FrameType::kSnapshot:
      return "snapshot";
    case FrameType::kAck:
      return "ack";
    case FrameType::kEvict:
      return "evict";
    case FrameType::kBye:
      return "bye";
  }
  return "?";
}

uint32_t Crc32(std::string_view bytes, uint32_t seed) {
  uint32_t crc = ~seed;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t n = bytes.size();
#if defined(__x86_64__)
  static const bool kFold = CpuHasPclmul();
  if (kFold && n >= 64) {
    size_t folded = n & ~size_t{15};
    crc = CrcFoldPclmul(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return ~CrcSliceBy8(crc, p, n);
}

std::string EncodeFrame(const Frame& frame, uint64_t ack) {
  char header[kFrameHeaderSize];
  PutU32(header, kFrameMagic);
  PutU32(header + 4, static_cast<uint32_t>(frame.payload.size()));
  header[8] = static_cast<char>(frame.type);
  header[9] = 0;  // flags
  PutU32(header + 10, frame.session);
  PutU64(header + 14, frame.seq);
  PutU64(header + 22, ack);
  PutU32(header + 30, Crc32(frame.payload));
  // The header CRC covers [4, 34) — every field the receiver acts on before
  // the payload arrives, the payload CRC included — so a damaged length
  // prefix is caught up front instead of wedging the decoder.
  PutU32(header + 34, Crc32(std::string_view(header + 4, 30)));
  std::string out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  out.append(header, kFrameHeaderSize);
  out += frame.payload;
  return out;
}

void FrameDecoder::Feed(std::string_view bytes) {
  Compact();
  buffer_.append(bytes.data(), bytes.size());
}

void FrameDecoder::Compact() {
  if (consumed_ > 0 && consumed_ >= buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 4096) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
}

bool FrameDecoder::Poll(Frame* out) {
  while (true) {
    size_t avail = buffer_.size() - consumed_;
    if (avail < kFrameHeaderSize) {
      return false;
    }
    const char* base = buffer_.data() + consumed_;
    if (GetU32(base) != kFrameMagic) {
      // Re-sync: skip to the next candidate magic byte.
      size_t skip = 1;
      while (skip < avail && static_cast<unsigned char>(base[skip]) != 0x41) {
        ++skip;
      }
      consumed_ += skip;
      skipped_bytes_ += skip;
      continue;
    }
    // The header CRC is verified before the length prefix is trusted: a
    // corrupted length with a single whole-frame CRC would park the decoder
    // waiting for a phantom payload while every later frame feeds the void.
    if (Crc32(std::string_view(base + 4, 30)) != GetU32(base + 34)) {
      ++corrupt_frames_;
      consumed_ += 4;  // Drop this magic; re-sync on the next.
      skipped_bytes_ += 4;
      continue;
    }
    uint32_t payload_len = GetU32(base + 4);
    if (avail < kFrameHeaderSize + payload_len) {
      return false;  // Wait for the rest; the length is authenticated.
    }
    if (Crc32(std::string_view(base + kFrameHeaderSize, payload_len)) !=
        GetU32(base + 30)) {
      // Damage in the payload only: the trusted length lets us skip the
      // exact frame instead of hunting for the next magic.
      ++corrupt_frames_;
      consumed_ += kFrameHeaderSize + payload_len;
      skipped_bytes_ += kFrameHeaderSize + payload_len;
      continue;
    }
    out->type = static_cast<FrameType>(static_cast<unsigned char>(base[8]));
    out->session = GetU32(base + 10);
    out->seq = GetU64(base + 14);
    out->ack = GetU64(base + 22);
    out->payload.assign(base + kFrameHeaderSize, payload_len);
    consumed_ += kFrameHeaderSize + payload_len;
    Compact();
    return true;
  }
}

std::vector<Frame> FrameDecoder::Drain() {
  std::vector<Frame> frames;
  Frame frame;
  while (Poll(&frame)) {
    frames.push_back(std::move(frame));
    frame = Frame{};
  }
  return frames;
}

}  // namespace server
}  // namespace atk
