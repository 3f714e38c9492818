// google-benchmark microbenchmarks for the kernels the reduction is built
// from — useful when tuning block sizes or porting the BLAS.
#include <benchmark/benchmark.h>

#include <vector>

#include "ft/checksum.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/orghr.hpp"
#include "lapack/reflectors.hpp"

using namespace fth;

namespace {

/// Rate counter for `flops` floating-point operations per iteration.
benchmark::Counter gflops(const benchmark::State& state, double flops) {
  return benchmark::Counter(flops * static_cast<double>(state.iterations()) / 1e9,
                            benchmark::Counter::kIsRate);
}

/// Time per element for `elems` elements per iteration (printed in s).
benchmark::Counter time_per(index_t elems) {
  return benchmark::Counter(static_cast<double>(elems),
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

void BM_gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> a = random_matrix(n, n, 1);
  Matrix<double> b = random_matrix(n, n, 2);
  Matrix<double> c(n, n);
  for (auto _ : state) {
    blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  const double dn = static_cast<double>(n);
  state.counters["GFLOP/s"] = gflops(state, 2.0 * dn * dn * dn);
}
BENCHMARK(BM_gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

// The reductions' own products, where per-call cost shows: the trailing
// update C(n+1 × n−32) −= Y·Vᵀ with k = nb = 32, and the Y-top product
// Y(n/2 × 32) = A·V with k = n/2, at the two Hessenberg benchmark sizes.
void BM_gemm_update(benchmark::State& state) {
  const index_t n = state.range(0);
  constexpr index_t nb = 32;
  Matrix<double> y = random_matrix(n + 1, nb, 11);
  Matrix<double> v = random_matrix(n - nb, nb, 12);
  Matrix<double> c = random_matrix(n + 1, n - nb, 13);
  for (auto _ : state) {
    blas::gemm(Trans::No, Trans::Yes, -1.0, y.cview(), v.cview(), 1.0, c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = gflops(state, 2.0 * static_cast<double>((n + 1) * (n - nb) * nb));
}
BENCHMARK(BM_gemm_update)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_gemm_ytop(benchmark::State& state) {
  const index_t h = state.range(0) / 2;
  constexpr index_t nb = 32;
  Matrix<double> a = random_matrix(h, h, 14);
  Matrix<double> v = random_matrix(h, nb, 15);
  Matrix<double> y(h, nb);
  for (auto _ : state) {
    blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), v.cview(), 0.0, y.view());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = gflops(state, 2.0 * static_cast<double>(h * h * nb));
}
BENCHMARK(BM_gemm_ytop)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

// The tridiagonal reduction's trailing update, A −= V·Wᵀ + W·Vᵀ, at the
// first panel of sytrd-n384 (352 = 384 − 32 trailing rows, k = 32).
void BM_syr2k(benchmark::State& state) {
  const index_t n = state.range(0);
  constexpr index_t nb = 32;
  Matrix<double> v = random_matrix(n, nb, 16);
  Matrix<double> w = random_matrix(n, nb, 17);
  Matrix<double> c = random_symmetric_matrix(n, 18);
  for (auto _ : state) {
    blas::syr2k(Uplo::Lower, Trans::No, -1.0, v.cview(), w.cview(), 1.0, c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOP/s"] = gflops(state, 2.0 * static_cast<double>(n * n * nb));
}
BENCHMARK(BM_syr2k)->Arg(352)->Unit(benchmark::kMicrosecond);

void BM_gemv(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> a = random_matrix(n, n, 3);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (auto _ : state) {
    blas::gemv(Trans::No, 1.0, a.cview(), VectorView<const double>(x.data(), n), 0.0,
               VectorView<double>(y.data(), n));
    benchmark::DoNotOptimize(y.data());
  }
  const double dn = static_cast<double>(n);
  state.counters["GFLOP/s"] = gflops(state, 2.0 * dn * dn);
}
BENCHMARK(BM_gemv)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

// Column sums of an m×n block, the FT drivers' code sums: the transposed
// gemv against a ones vector they used to take, one serial chain per
// column, and the line-sum kernel that replaced it (same sums, same bits,
// several columns' chains at once). At the gebrd/sytrd n = 384 and
// gehrd n = 512 trailing blocks and the 352×32 shape of V2ᵀe.
void BM_gemv_T_ones(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t n = state.range(1);
  Matrix<double> a = random_matrix(m, n, 4);
  std::vector<double> ones(static_cast<std::size_t>(m), 1.0);
  std::vector<double> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    blas::gemv(Trans::Yes, 1.0, a.cview(), VectorView<const double>(ones.data(), m), 0.0,
               VectorView<double>(y.data(), n));
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_elem"] = time_per(m * n);
}
BENCHMARK(BM_gemv_T_ones)
    ->Args({384, 384})
    ->Args({512, 512})
    ->Args({352, 32})
    ->Unit(benchmark::kMicrosecond);

void BM_colsums_ones(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t n = state.range(1);
  Matrix<double> a = random_matrix(m, n, 4);
  std::vector<double> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    ft::sum_lines(a.cview(), ft::LineShape::full(), {}, VectorView<double>(y.data(), n));
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["per_elem"] = time_per(m * n);
}
BENCHMARK(BM_colsums_ones)
    ->Args({384, 384})
    ->Args({512, 512})
    ->Args({352, 32})
    ->Unit(benchmark::kMicrosecond);

void BM_larfb(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t k = 32;
  Matrix<double> a = random_matrix(m + 1, m + 1, 4);
  std::vector<double> tau(static_cast<std::size_t>(m));
  lapack::gehrd(a.view(), VectorView<double>(tau.data(), m), {.nb = k, .nx = k});
  Matrix<double> v = lapack::materialize_v(a.cview(), 0, k);
  Matrix<double> t(k, k);
  lapack::larft(v.cview(), VectorView<const double>(tau.data(), k), t.view());
  Matrix<double> c = random_matrix(m, m, 5);
  Matrix<double> work(m, k);
  for (auto _ : state) {
    lapack::larfb(Trans::Yes, v.cview(), t.cview(), c.view(), work.view());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_larfb)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_lahr2_panel(benchmark::State& state) {
  const index_t n = state.range(0);
  const index_t nb = 32;
  Matrix<double> a0 = random_matrix(n, n, 6);
  Matrix<double> t(nb, nb);
  Matrix<double> y(n, nb);
  std::vector<double> tau(static_cast<std::size_t>(nb));
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<double> a(a0.cview());
    state.ResumeTiming();
    lapack::lahr2(a.view(), 0, nb, t.view(), y.view(),
                  VectorView<double>(tau.data(), nb));
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_lahr2_panel)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_gehrd(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> a0 = random_matrix(n, n, 7);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<double> a(a0.cview());
    state.ResumeTiming();
    lapack::gehrd(a.view(), VectorView<double>(tau.data(), n - 1), {});
    benchmark::DoNotOptimize(a.data());
  }
  const double dn = static_cast<double>(n);
  state.counters["GFLOP/s"] = gflops(state, 10.0 / 3.0 * dn * dn * dn);
}
BENCHMARK(BM_gehrd)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_encode_extended(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> a = random_matrix(n, n, 8);
  for (auto _ : state) {
    Matrix<double> ext = ft::encode_extended(a.cview());
    benchmark::DoNotOptimize(ext.data());
  }
}
BENCHMARK(BM_encode_extended)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_detection_gap(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> ext = ft::encode_extended(random_matrix(n, n, 9).cview());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ft::detection_gap(ext.cview()));
  }
}
BENCHMARK(BM_detection_gap)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
