package trustseq

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/indemnity"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/sim"
	"trustseq/internal/sweep"
)

// A compiled problem is read, never rebuilt: synthesis, the
// cross-check and a simulation of the plan, run on goroutines that share
// one *model.Compiled, all read its one table, on the paper's fixtures
// and every generator family. Under -race this also pins that no engine
// writes the shared value.
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
		c, err := model.Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab := c.ActionTable()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			plan, err := core.SynthesizeObs(c, nil)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if plan.Problem != c {
				t.Errorf("%s: the plan reads another problem", name)
			}
			if plan.Feasible {
				if _, err := sim.Run(plan, sim.Options{Seed: 1}); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := sweep.CrossCheck(c, 12, 20_000, nil, nil); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
		wg.Wait()
		if c.ActionTable() != tab {
			t.Fatalf("%s: an engine rebuilt the action table", name)
		}
	}
}

// A caller that analysed a problem and wants the offers
// indemnity.Greedy found takes a builder copy, appends the offers,
// compiles the copy and synthesises it. This is the flow of
// examples/marketplace, on its market.
func TestRepairAfterAnalysis(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2026))
	repaired := 0
	for job := 0; job < 20; job++ {
		market := model.MustCompile(gen.Random(rng, gen.Options{
			Consumers: 1,
			Brokers:   1 + rng.Intn(2),
			Producers: 1 + rng.Intn(3),
			MaxPrice:  60,
		}))
		plan, err := core.SynthesizeObs(market, nil)
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
		edited := market.Clone()
		for _, sp := range fix.Splits {
			edited.Indemnities = append(edited.Indemnities, sp.Offer)
		}
		c, err := model.Compile(edited)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if plan, err = core.SynthesizeObs(c, nil); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if !plan.Feasible {
			t.Fatalf("job %d: the repaired market is infeasible", job)
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
