package trustseq

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/cost"
	"trustseq/internal/distred"
	"trustseq/internal/dsl"
	"trustseq/internal/gen"
	"trustseq/internal/hierarchy"
	"trustseq/internal/indemnity"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/petri"
	"trustseq/internal/search"
	"trustseq/internal/sequencing"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
	"trustseq/internal/twopc"
)

func mustGraph(b *testing.B, p *model.Problem) *sequencing.Graph {
	b.Helper()
	return sequencing.Build(model.MustCompile(p))
}

// --- E1/E2/E5: reduction and synthesis on the paper's figures ------------

func BenchmarkReduceExample1(b *testing.B) {
	sg := mustGraph(b, paperex.Example1())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sequencing.Reduce(sg, nil).Feasible() {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkReduceExample2(b *testing.B) {
	sg := mustGraph(b, paperex.Example2())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sequencing.Reduce(sg, nil).Feasible() {
			b.Fatal("feasible")
		}
	}
}

func BenchmarkSynthesizeExample1(b *testing.B) {
	p := model.MustCompile(paperex.Example1())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := core.SynthesizeObs(p, nil)
		if err != nil || !plan.Feasible {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyExample1(b *testing.B) {
	plan, err := core.Synthesize(paperex.Example1())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: reduction scaling (near-linear) vs exhaustive search -----------

func BenchmarkReduceChain(b *testing.B) {
	for _, k := range []int{4, 16, 64, 256} {
		k := k
		b.Run(fmt.Sprintf("brokers=%d", k), func(b *testing.B) {
			sg := mustGraph(b, gen.Chain(k, model.Money(k+10)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sequencing.Reduce(sg, nil).Feasible() {
					b.Fatal("infeasible")
				}
			}
		})
	}
}

// Ablation: the worklist reducer vs the naive rescan reducer.
func BenchmarkReduceNaiveChain(b *testing.B) {
	for _, k := range []int{4, 16, 64, 256} {
		k := k
		b.Run(fmt.Sprintf("brokers=%d", k), func(b *testing.B) {
			sg := mustGraph(b, gen.Chain(k, model.Money(k+10)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sequencing.ReducePreferred(sg, func(sequencing.Edge) int { return 0 }).Feasible() {
					b.Fatal("infeasible")
				}
			}
		})
	}
}

func BenchmarkSearchStrongChain(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		k := k
		b.Run(fmt.Sprintf("brokers=%d", k), func(b *testing.B) {
			p := gen.Chain(k, 30)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := search.Feasible(p, search.ModeStrong)
				if err != nil || !v.Feasible {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSearchAssetsExample2(b *testing.B) {
	p := paperex.Example2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := search.Feasible(p, search.ModeAssets)
		if err != nil || !v.Feasible {
			b.Fatal(err)
		}
	}
}

// --- E5: indemnity ordering ------------------------------------------------

func BenchmarkIndemnityGreedyFigure7(b *testing.B) {
	p := model.MustCompile(paperex.Figure7())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := indemnity.Greedy(p)
		if err != nil || res.Total != 70 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

func BenchmarkIndemnityGreedyStar(b *testing.B) {
	for _, k := range []int{2, 4, 6} {
		k := k
		b.Run(fmt.Sprintf("brokers=%d", k), func(b *testing.B) {
			prices := make([]model.Money, k)
			for i := range prices {
				prices[i] = model.Money(10 * (i + 1))
			}
			p := model.MustCompile(gen.Star(prices))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := indemnity.Greedy(p)
				if err != nil || !res.Feasible {
					b.Fatalf("res=%v err=%v", res, err)
				}
			}
		})
	}
}

// Ablation: greedy vs brute-force optimal.
func BenchmarkIndemnityOptimalFigure7(b *testing.B) {
	p := model.MustCompile(paperex.Figure7())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := indemnity.Optimal(p)
		if err != nil || res.Total != 70 {
			b.Fatalf("res=%v err=%v", res, err)
		}
	}
}

// --- E7/E8: cost of mistrust ------------------------------------------------

func BenchmarkChainTable(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cost.ChainTable(5, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniversalProtocol(b *testing.B) {
	p := model.MustCompile(paperex.UniversalTrust(paperex.Example2()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := cost.RunUniversal(p)
		if err != nil || !out.Feasible {
			b.Fatal(err)
		}
	}
}

// --- E11: simulator throughput ----------------------------------------------

func BenchmarkSimulatorExample1(b *testing.B) {
	plan, err := core.Synthesize(paperex.Example1())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(plan, sim.Options{Seed: int64(i)})
		if err != nil || !res.Completed() {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorIndemnified(b *testing.B) {
	plan, err := core.Synthesize(paperex.Example2Indemnified())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(plan, sim.Options{Seed: int64(i)})
		if err != nil || !res.Completed() {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorChain(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		k := k
		b.Run(fmt.Sprintf("brokers=%d", k), func(b *testing.B) {
			plan, err := core.Synthesize(gen.Chain(k, model.Money(k+10)))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(plan, sim.Options{Seed: int64(i)})
				if err != nil || !res.Completed() {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulatorDefection(b *testing.B) {
	plan, err := core.Synthesize(paperex.Example2Indemnified())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(plan, sim.Options{
			Seed:      int64(i),
			Defectors: map[model.PartyID]int{paperex.Broker1: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: Petri-net coverability ----------------------------------------------

func BenchmarkPetriCompletableExample1(b *testing.B) {
	enc, err := petri.FromProblem(paperex.Example1())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := enc.Completable(1 << 20); !res.Found {
			b.Fatal("not completable")
		}
	}
}

func BenchmarkPetriCompletableFigure7(b *testing.B) {
	enc, err := petri.FromProblem(paperex.Figure7())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := enc.Completable(1 << 21); !res.Found {
			b.Fatal("not completable")
		}
	}
}

// --- parallel cross-validation sweep -----------------------------------------
//
// The serial-vs-parallel pair measures the worker-pool speedup on an
// identical 50-problem gen.Random corpus (the sweep's per-problem seeds
// make the workload independent of scheduling). Run with -cpu 4 to
// compare; the verdicts are asserted identical via Stats.

func sweepBenchStats(b *testing.B, workers int) sweep.Stats {
	b.Helper()
	rep := sweep.Run(sweep.Config{N: 50, Seed: 17, Workers: workers})
	if v := rep.Stats.Violations(); v != 0 {
		b.Fatalf("sweep violations: %d\n%s", v, rep.Summary())
	}
	return rep.Stats
}

func BenchmarkSweepSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweepBenchStats(b, 1)
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	var par sweep.Stats
	for i := 0; i < b.N; i++ {
		par = sweepBenchStats(b, workers)
	}
	b.StopTimer()
	if serial := sweepBenchStats(b, 1); par != serial {
		b.Fatalf("parallel stats %+v differ from serial %+v", par, serial)
	}
}

// --- E12: 2PC baseline ----------------------------------------------------------

func BenchmarkTwoPCExample1(b *testing.B) {
	p := model.MustCompile(paperex.Example1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, _, err := twopc.RunExchange(p, nil)
		if err != nil || stats.Decision != twopc.DecisionCommit {
			b.Fatal(err)
		}
	}
}

// --- DSL -------------------------------------------------------------------------

func BenchmarkDSLLoad(b *testing.B) {
	src, err := dsl.Print(paperex.Figure7())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsl.Load(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- random synthesis throughput ---------------------------------------------------

func BenchmarkSynthesizeRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	problems := make([]*model.Compiled, 32)
	for i := range problems {
		problems[i] = model.MustCompile(gen.Random(rng, gen.Options{Consumers: 2, Brokers: 2, Producers: 3, MaxPrice: 50}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SynthesizeObs(problems[i%len(problems)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E15/E16 extensions -------------------------------------------------------

func BenchmarkDistributedReduce(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		k := k
		b.Run(fmt.Sprintf("brokers=%d", k), func(b *testing.B) {
			p := model.MustCompile(gen.Chain(k, model.Money(k+10)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := distred.Reduce(p, int64(i))
				if err != nil || !res.Feasible {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHierarchyEnableAndSynthesize(b *testing.B) {
	topo := &hierarchy.Topology{
		PrincipalTrust: map[model.PartyID][]hierarchy.IntermediaryID{
			"alice": {"west"},
			"bob":   {"east"},
		},
		Hierarchy: []hierarchy.IntermediaryTrust{
			{Truster: "west", Trustee: "clearing"},
			{Truster: "east", Trustee: "clearing"},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := topo.Enable("alice", "bob", "deed", 100)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := core.SynthesizeObs(p, nil)
		if err != nil || !plan.Feasible {
			b.Fatal(err)
		}
	}
}

// --- E-incremental: edit-workload reanalysis -----------------------------

// reusedReduction keeps each rebound reduction alive, as a served plan
// does, so the compiler cannot elide the rebind's copies.
var reusedReduction *sequencing.Reduction

// BenchmarkEditReanalysis measures the analysis stage of a one-line edit
// of the 256-broker chain, a price retune that leaves every row the
// sequencing graph reads unchanged: a from-scratch graph build +
// reduction versus the row comparison against the resident base plan
// plus the rebind of its graph and reduction. Both modes start from a
// compiled problem — exactly what the service holds after parsing a
// request — so the ratio isolates the incremental machinery.
// Scheduling is identical on both paths (it replays the same removal
// trace) and is excluded.
func BenchmarkEditReanalysis(b *testing.B) {
	const k = 256
	base := gen.Chain(k, model.Money(k+10))
	basePlan, err := core.Synthesize(base)
	if err != nil {
		b.Fatal(err)
	}
	// A conservation-preserving price retune: graph bits unchanged.
	retuned := base.Clone()
	retuned.Exchanges[0].Gives.Amount++
	retuned.Exchanges[1].Gets.Amount++
	retunedC := model.MustCompile(retuned)

	b.Run("mode=full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sequencing.Reduce(sequencing.Build(retunedC), nil).Feasible() {
				b.Fatal("infeasible")
			}
		}
	})
	b.Run("mode=patched-reuse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sequencing.SameGraph(basePlan.Problem, retunedC) {
				b.Fatal("retune changed the graph")
			}
			reusedReduction = basePlan.Reduction.Rebind(retunedC)
		}
	})
}

// BenchmarkImpasse measures the impasse diagnosis of an infeasible
// population: with every exchange of gen.Population(n, 0, 10) red, the
// reduction stops early and Impasse replays its removals, then scans the
// remaining edges.
func BenchmarkImpasse(b *testing.B) {
	for _, n := range []int{1000, 2000} {
		p := gen.Population(n, 0, 10)
		for i := range p.Exchanges {
			p.Exchanges[i].RedOverride = true
		}
		red := sequencing.Reduce(sequencing.Build(model.MustCompile(p)), nil)
		if red.Feasible() {
			b.Fatal("an all-red population reduced feasibly")
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if red.Impasse() == "" {
					b.Fatal("no diagnosis")
				}
			}
		})
	}
}
