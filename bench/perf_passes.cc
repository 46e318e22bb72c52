/**
 * @file
 * google-benchmark micro-benchmarks backing the paper's complexity
 * claims (Sec. IV): CA-DD scales as O(d^2 n) and CA-EC as O(d n)
 * in circuit depth d and device size n.  Also covers the
 * supporting machinery (scheduling, twirling, colouring).
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "experiments/ramsey.hh"
#include "passes/pipeline.hh"

using namespace casq;

namespace {

/** Alternating ECR / SX layers on a chain of n qubits. */
LayeredCircuit
syntheticWorkload(std::size_t n, int depth)
{
    return bench::syntheticChainWorkload(n, depth,
                                         /*idle_layers=*/false);
}

Backend
chainBackend(std::size_t n)
{
    return makeFakeLinear(n, 7);
}

void
BM_ScheduleAsap(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const Backend backend = chainBackend(n);
    const Circuit flat =
        syntheticWorkload(n, int(state.range(1))).flatten();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduleASAP(flat, backend.durations()));
    }
    state.SetComplexityN(state.range(1));
}

void
BM_CaDdPass(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const Backend backend = chainBackend(n);
    const ScheduledCircuit sched = scheduleASAP(
        syntheticWorkload(n, int(state.range(1))).flatten(),
        backend.durations());
    for (auto _ : state)
        benchmark::DoNotOptimize(applyCaDd(sched, backend));
    state.SetComplexityN(state.range(1));
}

void
BM_CaEcPass(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const Backend backend = chainBackend(n);
    const LayeredCircuit circuit =
        syntheticWorkload(n, int(state.range(1)));
    const Circuit flat = circuit.flatten();
    const CaecPlan plan = makeCaecPlan(circuit);
    ConjugationTable tables;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            applyCaEcFlat(flat, plan, nullptr, backend, tables));
    state.SetComplexityN(state.range(1));
}

void
BM_PauliTwirl(benchmark::State &state)
{
    const LayeredCircuit circuit =
        syntheticWorkload(std::size_t(state.range(0)), 16);
    const Circuit flat = circuit.flatten();
    const TwirlPlan plan = makeTwirlPlan(circuit);
    Rng rng(3);
    ConjugationTable tables;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            insertTwirlFrames(flat, plan, rng, tables));
}

void
BM_FullPipelineCompile(benchmark::State &state)
{
    const std::size_t n = 12;
    const Backend backend = chainBackend(n);
    const LayeredCircuit circuit =
        syntheticWorkload(n, int(state.range(0)));
    CompileOptions options;
    options.strategy = Strategy::Combined;
    Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            compileCircuit(circuit, backend, options, rng));
    }
}

void
BM_BuildPipeline(benchmark::State &state)
{
    CompileOptions options;
    options.strategy = Strategy::Combined;
    for (auto _ : state)
        benchmark::DoNotOptimize(buildPipeline(options));
}

void
BM_PipelineCompileReusedManager(benchmark::State &state)
{
    // Same workload as BM_FullPipelineCompile, but the manager (and
    // thus the twirl conjugation-table cache) persists across
    // compiles -- the ensemble-compilation hot path.
    const std::size_t n = 12;
    const Backend backend = chainBackend(n);
    const LayeredCircuit circuit =
        syntheticWorkload(n, int(state.range(0)));
    CompileOptions options;
    options.strategy = Strategy::Combined;
    PassManager pipeline = buildPipeline(options);
    Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pipeline.compile(circuit, backend, rng));
    }
}

void
BM_CompileEnsemble(benchmark::State &state)
{
    const std::size_t n = 12;
    const Backend backend = chainBackend(n);
    const LayeredCircuit circuit = syntheticWorkload(n, 16);
    CompileOptions options;
    options.strategy = Strategy::Combined;
    for (auto _ : state) {
        benchmark::DoNotOptimize(compileEnsemble(
            circuit, backend, options, int(state.range(0)), 11));
    }
}

} // namespace

BENCHMARK(BM_ScheduleAsap)
    ->Args({16, 8})
    ->Args({16, 16})
    ->Args({16, 32})
    ->Args({64, 16});

BENCHMARK(BM_CaDdPass)
    ->Args({16, 4})
    ->Args({16, 8})
    ->Args({16, 16})
    ->Args({16, 32})
    ->Args({64, 8})
    ->Complexity(benchmark::oNSquared);

BENCHMARK(BM_CaEcPass)
    ->Args({16, 8})
    ->Args({16, 16})
    ->Args({16, 32})
    ->Args({16, 64})
    ->Args({64, 16})
    ->Complexity(benchmark::oN);

BENCHMARK(BM_PauliTwirl)->Arg(8)->Arg(16)->Arg(32);

BENCHMARK(BM_FullPipelineCompile)->Arg(8)->Arg(16);

BENCHMARK(BM_BuildPipeline);

BENCHMARK(BM_PipelineCompileReusedManager)->Arg(8)->Arg(16);

BENCHMARK(BM_CompileEnsemble)->Arg(4)->Arg(16);

BENCHMARK_MAIN();
