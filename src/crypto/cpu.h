// The x86-64 instruction-set extensions the crypto kernels dispatch on,
// read from CPUID once per process. Each kernel family (AES-128, the CRC
// fold, SHA-256) picks its kernel from these flags on first use and keeps
// it; nothing else selects a kernel. Off x86-64 every flag is false.
#pragma once

namespace ibsec::crypto {

struct CpuFeatures {
  bool aes_ni = false;  // AESENC/AESKEYGENASSIST: detail::aes128_*_ni
  bool pclmul = false;  // PCLMULQDQ: detail::crc_fold_pclmul
  bool sha_ni = false;  // SHA extensions + SSE4.1: detail::sha256_blocks_shani
};

inline const CpuFeatures& cpu() {
  static const CpuFeatures features = [] {
    CpuFeatures f;
#if defined(__x86_64__)
    __builtin_cpu_init();
    f.aes_ni = __builtin_cpu_supports("aes");
    f.pclmul = __builtin_cpu_supports("pclmul");
    f.sha_ni = __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#endif
    return f;
  }();
  return features;
}

}  // namespace ibsec::crypto
