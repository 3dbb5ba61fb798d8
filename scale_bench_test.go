package trustseq

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/sim"
)

// popDeadline is the simulation deadline used by every population
// benchmark. The protocol's critical path grows with the producer
// fan-out (256 consumers funnel through each producer serially), so
// the default paper-scale deadline of 1000 ticks is too short for any
// generated population; 20000 clears the critical path at every size
// benchmarked here while staying far inside the timing wheel's 2^24
// span.
const popDeadline = 20000

// popPlans caches one synthesized plan per population size so the
// benchmark loop times only the simulation. Synthesis is measured
// separately: it is still superlinear at population scale (2.5–3x per
// doubling from 10^4 to 8·10^4 principals, see ROADMAP.md), and at 10^5
// principals takes longer than a single simulated run — folding it in
// would drown the metric under test.
var popPlans sync.Map

func popPlan(b *testing.B, n int) *core.Plan {
	if v, ok := popPlans.Load(n); ok {
		return v.(*core.Plan)
	}
	plan, err := core.Synthesize(gen.Population(n, 0, 10))
	if err != nil {
		b.Fatalf("synthesize population %d: %v", n, err)
	}
	popPlans.Store(n, plan)
	return plan
}

// BenchmarkPopulationSim is the scale benchmark behind BENCH_pr8.json:
// end-to-end simulation of a generated n-consumer population, reported
// as raw ns/op plus two derived metrics — principals/s (simulation
// throughput) and B/principal (allocation per principal per run, from
// the MemStats TotalAlloc delta). The bytes-per-principal curve is the
// flat-memory acceptance gate: cmd/benchtrend fails if it grows by
// more than 1.5x from 10^3 to 10^5 principals.
func BenchmarkPopulationSim(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("principals=%d", n), func(b *testing.B) {
			plan := popPlan(b, n)
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(plan, sim.Options{Seed: 1, Deadline: popDeadline})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed() {
					b.Fatal("population run missed its deadline")
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			perRun := float64(ms.TotalAlloc-before) / float64(b.N)
			b.ReportMetric(perRun/float64(n), "B/principal")
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "principals/s")
		})
	}
}

// BenchmarkPopulationCheckpoint times the CI population soak three
// ways at 10^4 principals: a plain run, a run that writes its
// checkpoint at tick 10000, and a restore from that checkpoint. The
// options are trustsim's for `-principals 10000 -deadline 20000 -seed 1
// -faults all`. A checkpoint names a verified prefix of the run, so
// write and restore each cost about one run.
func BenchmarkPopulationCheckpoint(b *testing.B) {
	const n, seed, at = 10000, 1, 10000
	b.Run(fmt.Sprintf("principals=%d", n), func(b *testing.B) {
		plan := popPlan(b, n)
		rng := rand.New(rand.NewSource(seed ^ 0x5DEECE66D)) // trustsim's fault-plan stream
		opts := sim.Options{Seed: seed, Jitter: 3, Deadline: popDeadline,
			Faults: sim.SampleFaultPlan(rng, plan.Problem, sim.AllFaults(), popDeadline)}
		write := opts
		write.Checkpoint = &sim.CheckpointSpec{Path: filepath.Join(b.TempDir(), "soak.ckpt"), At: at}
		if _, err := sim.Run(plan, write); err != nil {
			b.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			run  func() (*sim.Result, error)
		}{
			{"run", func() (*sim.Result, error) { return sim.Run(plan, opts) }},
			{"write", func() (*sim.Result, error) { return sim.Run(plan, write) }},
			{"restore", func() (*sim.Result, error) { return sim.RestoreRun(plan, opts, write.Checkpoint.Path) }},
		} {
			b.Run(mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mode.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}
