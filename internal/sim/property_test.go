package sim

import (
	"math/rand"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
)

// Every graph-feasible random problem simulates to completion with all
// parties honest, leaving everyone acceptable and every independent
// trusted component neutral — across several network seeds.
func TestRandomFeasibleProblemsSimulate(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(321))
	simulated := 0
	for i := 0; i < 60 && simulated < 15; i++ {
		p := gen.Random(rng, gen.Options{
			Consumers:       1 + rng.Intn(2),
			Brokers:         1 + rng.Intn(2),
			Producers:       1 + rng.Intn(3),
			MaxPrice:        60,
			DirectTrustProb: 0.3,
		})
		pl, err := core.Synthesize(p)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !pl.Feasible {
			continue
		}
		simulated++
		for seed := int64(0); seed < 3; seed++ {
			res, err := Run(pl, Options{Seed: seed, Jitter: 5})
			if err != nil {
				t.Fatalf("instance %d seed %d: %v", i, seed, err)
			}
			if !res.Completed() {
				t.Fatalf("instance %d seed %d incomplete:\n%s", i, seed, res.Summary())
			}
			for _, pa := range p.Parties {
				if pa.IsTrusted() {
					if _, isPersona := pl.Problem.PersonaOf(pa.ID); !isPersona && !res.TrustedNeutral(pa.ID) {
						t.Errorf("instance %d: %s not neutral", i, pa.ID)
					}
					continue
				}
				if !res.AcceptableTo(pa.ID) {
					t.Errorf("instance %d seed %d: unacceptable to %s:\n%s", i, seed, pa.ID, res.Summary())
				}
			}
		}
	}
	if simulated < 5 {
		t.Fatalf("only %d feasible instances simulated", simulated)
	}
}

// Defection fuzz: for random feasible problems, silence each principal
// in turn; honest non-offerer parties must keep asset integrity, and
// parties relying only on independent intermediaries must never lose
// anything — unless they extended direct trust to the defector.
func TestRandomDefectionFuzz(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(654))
	checked := 0
	for i := 0; i < 80 && checked < 10; i++ {
		p := gen.Random(rng, gen.Options{
			Consumers: 1, Brokers: 1 + rng.Intn(2), Producers: 1 + rng.Intn(2),
			MaxPrice: 50, DirectTrustProb: 0.25,
		})
		pl, err := core.Synthesize(p)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !pl.Feasible {
			continue
		}
		checked++
		for _, pa := range p.Parties {
			if pa.IsTrusted() {
				continue
			}
			defector := pa.ID
			res, err := Run(pl, Options{Seed: int64(i), Defectors: map[model.PartyID]int{defector: 0}})
			if err != nil {
				t.Fatalf("instance %d defector %s: %v", i, defector, err)
			}
			for _, other := range p.Parties {
				if other.IsTrusted() || other.ID == defector {
					continue
				}
				if TrustsDefectorPersona(pl.Problem, other.ID, defector) {
					continue // accepted risk: direct trust in the defector
				}
				if !res.AssetsSafeFor(other.ID) {
					t.Errorf("instance %d: honest %s lost assets to silent %s:\n%s",
						i, other.ID, defector, res.Summary())
				}
			}
		}
	}
	if checked < 3 {
		t.Fatalf("only %d feasible instances fuzzed", checked)
	}
}
