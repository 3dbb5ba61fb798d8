package trustseq

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/interaction"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/petri"
	"trustseq/internal/search"
	"trustseq/internal/sequencing"
	"trustseq/internal/sim"
)

// Allocation regression gates for the compiled hot paths. The budgets
// are fixed ceilings a little above the measured steady state (Reduce:
// 2 allocs — the Removals slice and the reduction struct; Completable:
// 19 — the per-call scratch and result buffers). Before the compile
// pass these paths allocated per-edge and per-marking, so a regression
// back to map-driven working state trips these immediately.

// skipIfRace bails out of exact allocation-count gates when the race
// detector is on: its instrumentation perturbs sync.Pool retention, so
// counts wobble by ±1 run to run. The coverage CI step runs without
// -race and still enforces every budget.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
}

func allocGraph(t *testing.T, p *model.Problem) *sequencing.Graph {
	t.Helper()
	ig, err := interaction.New(p)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := sequencing.NewSplit(ig)
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

func TestReduceAllocBudget(t *testing.T) {
	skipIfRace(t)
	cases := []struct {
		name string
		p    *model.Problem
	}{
		{"example1", paperex.Example1()},
		{"chain64", gen.Chain(64, model.Money(74))},
	}
	const budget = 4.0
	for _, tc := range cases {
		sg := allocGraph(t, tc.p)
		sequencing.Reduce(sg, nil) // warm the pooled reduction state
		got := testing.AllocsPerRun(100, func() {
			if !sequencing.Reduce(sg, nil).Feasible() {
				t.Fatal("infeasible")
			}
		})
		if got > budget {
			t.Errorf("%s: Reduce allocates %.0f/run, budget %.0f", tc.name, got, budget)
		}
	}
}

func TestPetriCompletableAllocBudget(t *testing.T) {
	skipIfRace(t)
	enc, err := petri.FromProblem(paperex.Example1())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 48.0
	got := testing.AllocsPerRun(20, func() {
		if res := enc.Completable(1 << 20); !res.Found {
			t.Fatal("not completable")
		}
	})
	if got > budget {
		t.Errorf("Completable allocates %.0f/run, budget %.0f", got, budget)
	}
}

// The incremental edit path must allocate O(frontier), not O(problem):
// the per-run allocation count stays under a small fixed budget and —
// the sharper property — does not grow with the chain length. (Byte
// sizes do grow where a copy-on-write slice is cloned; the count gates
// against reintroducing per-edge or per-node allocations.)
func TestIncrementalPatchAllocBudget(t *testing.T) {
	skipIfRace(t)
	const reuseBudget, rereduceBudget = 20.0, 24.0
	counts := map[string][]float64{}
	for _, k := range []int{16, 64} {
		base := gen.Chain(k, model.Money(k+10))
		basePlan, err := core.Synthesize(base)
		if err != nil {
			t.Fatal(err)
		}
		retuned := base.Clone()
		retuned.Exchanges[0].Gives.Amount++
		retuned.Exchanges[1].Gets.Amount++
		redflip := base.Clone()
		redflip.Exchanges[2].RedOverride = true
		for _, p := range []*model.Problem{retuned, redflip} {
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		}

		reuse := testing.AllocsPerRun(100, func() {
			d := model.Diff(base, retuned)
			res, ok := sequencing.Patch(basePlan.Sequencing, basePlan.Reduction, retuned, &d)
			if !ok || res.Outcome != sequencing.PatchReused {
				t.Fatal("patch did not reuse")
			}
		})
		if reuse > reuseBudget {
			t.Errorf("chain-%d: reuse path allocates %.0f/run, budget %.0f", k, reuse, reuseBudget)
		}
		rereduce := testing.AllocsPerRun(100, func() {
			d := model.Diff(base, redflip)
			res, ok := sequencing.Patch(basePlan.Sequencing, basePlan.Reduction, redflip, &d)
			if !ok || res.Outcome != sequencing.PatchRereduced {
				t.Fatal("patch did not rereduce")
			}
		})
		if rereduce > rereduceBudget {
			t.Errorf("chain-%d: rereduce path allocates %.0f/run, budget %.0f", k, rereduce, rereduceBudget)
		}
		counts["reuse"] = append(counts["reuse"], reuse)
		counts["rereduce"] = append(counts["rereduce"], rereduce)
	}
	for mode, got := range counts {
		if got[0] != got[1] {
			t.Errorf("%s path allocation count scales with problem size: chain-16 %.0f, chain-64 %.0f",
				mode, got[0], got[1])
		}
	}
}

// TestPopulationSimAllocBudget gates the bytes one sim.Run allocates,
// with the settlement log on, per principal of a 10^3-consumer
// population. The budget is the measured 7.35 KB per principal plus
// 25% headroom. Messages sit in the event queue as int32 handles into a
// reused arena; the trace, the settlement log's levels, the result
// state and every trusted node's escrow log are sized from the plan up
// front; and the nodes' scripts, seen, sent and escrow sets hold 4-byte
// action-table slots. Holding 72-byte Action values in those sets
// again lands above the budget (10.3 KB), and so does queueing Message
// values or growing the trace by append, each of which added 6–7 KB.
func TestPopulationSimAllocBudget(t *testing.T) {
	skipIfRace(t)
	const principals = 1000
	const budget = 7350 * 1.25 // bytes per principal
	plan, err := core.Synthesize(gen.Population(principals, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Seed: 1, Deadline: popDeadline, VLog: true}
	// The least of three runs: a stray background allocation can only
	// add to a sample.
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sim.Run(plan, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed() {
			t.Fatal("population run missed its deadline")
		}
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/principals)
	}
	t.Logf("sim.Run allocates %.0f B per principal", best)
	if best > budget {
		t.Fatalf("sim.Run allocates %.0f B per principal, above the %.0f B budget", best, budget)
	}
}

// TestSearchAllocBudget gates the bytes search.Feasible allocates per
// explored state in strong mode, over the paper fixtures and 64
// serve-cold-style markets (gen.Random with one consumer, one or two
// brokers and producers, direct trust 0.3). The budget is the measured
// 290 B per state plus 25% headroom. Each move — the search's own and
// every safety mini-search's — copies three flat slices into a pooled
// execution, and each mini-search reuses a pooled seen set. A fresh
// clone per search move lands at about 690 B, a fresh clone per move
// everywhere above 3 KB.
func TestSearchAllocBudget(t *testing.T) {
	skipIfRace(t)
	const budget = 290 * 1.25 // bytes per explored state
	var problems []*model.Problem
	for _, p := range paperex.All() {
		problems = append(problems, p)
	}
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		problems = append(problems, gen.Random(rng, gen.Options{
			Consumers: 1, Brokers: 1 + rng.Intn(2), Producers: 1 + rng.Intn(2),
			MaxPrice: 50, DirectTrustProb: 0.3,
		}))
	}
	// The least of three runs: a stray background allocation can only
	// add to a sample.
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		explored := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, p := range problems {
			v, err := search.Feasible(p, search.ModeStrong)
			if err != nil {
				t.Fatal(err)
			}
			explored += v.Explored
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/float64(explored))
	}
	t.Logf("strong search allocates %.0f B per explored state", best)
	if best > budget {
		t.Fatalf("strong search allocates %.0f B per explored state, above the %.0f B budget", best, budget)
	}
}
