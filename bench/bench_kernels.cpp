// §IV.B — single-CPU optimization microbenchmarks (google-benchmark):
// the kernel variants kept side by side. Paper-reported gains at full
// Jaguar scale: reciprocal arithmetic 31%, 2x unrolling 2%, cache
// blocking 7% (40% total with all three); kblock/jblock = 16/8 optimal
// for loop length ~125 with ~3% spread between nearby blockings.
// BM_WaveSolverTransient times the whole solver step through the
// wavefront's subnormal transient (EXPERIMENTS.md, known deviation #5).

#include <benchmark/benchmark.h>

#include <chrono>

#include "core/kernels.hpp"
#include "core/solver.hpp"
#include "grid/staggered_grid.hpp"
#include "mesh/partitioner.hpp"
#include "vcluster/cluster.hpp"
#include "vmodel/cvm.hpp"

using namespace awp;

namespace {

grid::StaggeredGrid& testGrid() {
  static grid::StaggeredGrid g = [] {
    grid::StaggeredGrid grid({125, 125, 64}, 100.0, 0.005);
    grid.setUniformMaterial(vmodel::Material{5000.0f, 2900.0f, 2700.0f});
    // Non-trivial wavefield so the arithmetic is realistic.
    for (std::size_t n = 0; n < grid.u.size(); ++n) {
      grid.u.data()[n] = static_cast<float>(n % 97) * 1e-3f;
      grid.v.data()[n] = static_cast<float>(n % 89) * 1e-3f;
      grid.w.data()[n] = static_cast<float>(n % 83) * 1e-3f;
      grid.xx.data()[n] = static_cast<float>(n % 79) * 1e2f;
      grid.xy.data()[n] = static_cast<float>(n % 73) * 1e2f;
    }
    return grid;
  }();
  return g;
}

void runStep(benchmark::State& state, const core::KernelOptions& opts) {
  auto& g = testGrid();
  for (auto _ : state) {
    core::updateVelocity(g, opts);
    core::updateStress(g, opts);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.dims().count()));
  state.counters["ns/point"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(g.dims().count()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_Plain(benchmark::State& state) {
  core::KernelOptions opts;
  opts.useReciprocals = false;
  runStep(state, opts);
}

void BM_Reciprocal(benchmark::State& state) {
  core::KernelOptions opts;  // reciprocals on by default
  runStep(state, opts);
}

void BM_ReciprocalUnrolled(benchmark::State& state) {
  core::KernelOptions opts;
  opts.unrolled = true;
  runStep(state, opts);
}

void BM_ReciprocalBlocked(benchmark::State& state) {
  core::KernelOptions opts;
  opts.cacheBlocked = true;
  runStep(state, opts);
}

void BM_FullyOptimized(benchmark::State& state) {
  core::KernelOptions opts;
  opts.cacheBlocked = true;
  opts.unrolled = true;
  runStep(state, opts);
}

// kblock/jblock sweep around the paper's 16/8 optimum.
void BM_BlockingSweep(benchmark::State& state) {
  core::KernelOptions opts;
  opts.cacheBlocked = true;
  opts.kblock = static_cast<int>(state.range(0));
  opts.jblock = static_cast<int>(state.range(1));
  runStep(state, opts);
}

// One wave_large rank block (80x60x48, h = 600 m, layered SoCal background,
// central explosion, sponge width 4) stepped on one rank for 200 steps.
// Counters: mean step cost over steps 15-60, where the leading fringe of
// the wavefront is subnormal in IEEE single precision, and over steps
// 80-200, after the fringe has left the block.
void BM_WaveSolverTransient(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kSteps = 200;
  const grid::GridDims dims{80, 60, 48};
  const double h = 600.0;
  const auto model = vmodel::LayeredModel::socalBackground();
  const vcluster::CartTopology topo(vcluster::Dims3{1, 1, 1});
  const mesh::MeshSpec spec{dims.nx, dims.ny, dims.nz, h, 0.0, 0.0};
  const mesh::MeshBlock block =
      mesh::sampleBlock(model, spec, mesh::subdomainFor(topo, spec, 0));

  double transientSeconds = 0.0;
  double steadySeconds = 0.0;
  for (auto _ : state) {
    vcluster::ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
      core::SolverConfig config;
      config.globalDims = dims;
      config.h = h;
      config.spongeWidth = 4;
      core::WaveSolver solver(comm, topo, config, block);
      const double dt = solver.dt();
      const double f0 = 1.0 / (20.0 * dt);
      solver.addSource(core::explosionPointSource(
          dims.nx / 2, dims.ny / 2, dims.nz / 2,
          core::rickerWavelet(f0, 1.5 / f0, dt, kSteps, 1e15)));
      // at[n]: when the solver had completed n steps.
      std::vector<Clock::time_point> at(kSteps + 1);
      at[0] = Clock::now();
      solver.run(kSteps, [&](std::size_t n) { at[n] = Clock::now(); });
      const auto seconds = [&](std::size_t from, std::size_t to) {
        return std::chrono::duration<double>(at[to] - at[from]).count();
      };
      transientSeconds += seconds(15, 60);
      steadySeconds += seconds(80, 200);
      state.SetIterationTime(seconds(0, kSteps));
    });
  }
  const double points =
      static_cast<double>(dims.count()) * static_cast<double>(state.iterations());
  state.counters["transient_ns_per_point"] =
      transientSeconds * 1e9 / (points * 45.0);
  state.counters["steady_ns_per_point"] =
      steadySeconds * 1e9 / (points * 120.0);
}

}  // namespace

BENCHMARK(BM_Plain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Reciprocal)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReciprocalUnrolled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReciprocalBlocked)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullyOptimized)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BlockingSweep)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({32, 16})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WaveSolverTransient)
    ->Iterations(3)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
