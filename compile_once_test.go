package trustseq

import (
	"fmt"
	"math/rand"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/indemnity"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
)

// A validated problem is compiled once. Synthesis, the cross-check and
// a simulation of the plan all read the table Validate published, on
// the paper's fixtures and every generator family; none of them
// validates the problem again.
func TestEnginesReadOneTable(t *testing.T) {
	t.Parallel()
	corpus := paperex.All()
	corpus["gen-pair"] = gen.Pair(10)
	corpus["gen-chain"] = gen.Chain(3, 100)
	corpus["gen-star"] = gen.Star([]model.Money{10, 20, 30})
	corpus["gen-population"] = gen.Population(4, 0, 10)
	corpus["gen-parallel"] = gen.Parallel(3, 10)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		corpus[fmt.Sprintf("gen-random-%d", seed)] = gen.Random(rng, gen.Options{
			Consumers: 2, Brokers: 2, Producers: 2, MaxPrice: 50, DirectTrustProb: 0.3,
		})
	}
	for name, p := range corpus {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab := p.ActionTable()
		same := func(stage string) {
			t.Helper()
			if p.ActionTable() != tab {
				t.Fatalf("%s: %s rebuilt the action table", name, stage)
			}
		}
		plan, err := core.Synthesize(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same("core.Synthesize")
		if _, err := sweep.CrossCheck(p, 12, 20_000, 1, nil, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same("sweep.CrossCheck")
		if plan.Feasible {
			if _, err := sim.Run(plan, sim.Options{Seed: 1}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			same("sim.Run")
		}
	}
}

// A caller may analyse a problem, append the offers indemnity.Greedy
// found and analyse it again without calling Validate in between: the
// appended offers change the problem's shape, so the second synthesis
// validates it again and reads them. This is the flow of
// examples/marketplace, on its market.
func TestRepairAfterAnalysis(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2026))
	repaired := 0
	for job := 0; job < 20; job++ {
		market := gen.Random(rng, gen.Options{
			Consumers: 1,
			Brokers:   1 + rng.Intn(2),
			Producers: 1 + rng.Intn(3),
			MaxPrice:  60,
		})
		plan, err := core.Synthesize(market)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if plan.Feasible {
			continue
		}
		fix, err := indemnity.Greedy(market)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if !fix.Feasible {
			continue
		}
		for _, sp := range fix.Splits {
			market.Indemnities = append(market.Indemnities, sp.Offer)
		}
		if plan, err = core.Synthesize(market); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if !plan.Feasible {
			t.Fatalf("job %d: the repaired market synthesised from a stale table", job)
		}
		res, err := sim.Run(plan, sim.Options{Seed: int64(job), Jitter: 4})
		if err != nil {
			t.Fatalf("job %d: simulate: %v", job, err)
		}
		if !res.Completed() {
			t.Fatalf("job %d did not complete:\n%s", job, res.Summary())
		}
		repaired++
	}
	if repaired == 0 {
		t.Fatal("no job needed a repair; the test shows nothing")
	}
}
