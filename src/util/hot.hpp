#pragma once
// AWP_HOT marks the per-step hot path: the solver step loop, the FD
// kernels, halo pack/unpack, and the PML/sponge boundary updates. The
// marker does two jobs:
//  * tells the optimizer the function is hot (GCC/Clang `hot` attribute:
//    more aggressive inlining/layout, grouped in the .text.hot section);
//  * registers the function with awplint's hot-path hygiene rule — no
//    allocation, container growth, string construction, or throwing calls
//    inside (see tools/awplint and DESIGN.md §10). The set of functions
//    that MUST carry this marker is pinned in tools/awplint/hot_registry.txt
//    so the marker cannot silently disappear in a refactor.

#if defined(__GNUC__) || defined(__clang__)
#define AWP_HOT [[gnu::hot]]
#else
#define AWP_HOT
#endif

// AWP_SIMD_CLONES builds a function twice, for baseline x86-64 (SSE2) and
// for AVX2, and picks one at load time from the CPU (GCC `target_clones`,
// resolved through an ifunc). It goes on the vectorized row loops: the FD
// row kernel, the sponge pass and the health scan. The avx2 target has no
// FMA and those files build with -ffp-contract=off, so both clones run the
// same IEEE operations per element and give the same bits; AVX2 only runs
// more elements per instruction. GCC only: Clang does not multiversion
// function templates, and the FD row kernel is one. Empty off x86-64 Linux
// and under ThreadSanitizer, whose runtime crashes before main() in a
// program that holds an ifunc (gcc 12).
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__SANITIZE_THREAD__)
#define AWP_SIMD_CLONES [[gnu::target_clones("avx2", "default")]]
#else
#define AWP_SIMD_CLONES
#endif
