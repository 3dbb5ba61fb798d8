package distred

import (
	"math/rand"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/sequencing"
)

func centralVerdict(t testing.TB, p *model.Problem) (bool, int) {
	t.Helper()
	r := sequencing.Reduce(sequencing.Build(model.MustCompile(p)), nil)
	return r.Feasible(), len(r.Removals)
}

// The distributed reduction agrees with the centralized one on every
// paper fixture — verdict and number of removed edges — across network
// seeds (message reordering must not matter).
func TestAgreesWithCentralizedOnFixtures(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			wantFeasible, wantRemovals := centralVerdict(t, p)
			c := model.MustCompile(p)
			for seed := int64(0); seed < 10; seed++ {
				res, err := Reduce(c, seed)
				if err != nil {
					t.Fatalf("Reduce = %v", err)
				}
				if res.Feasible != wantFeasible {
					t.Fatalf("seed %d: distributed %v != centralized %v", seed, res.Feasible, wantFeasible)
				}
				gotRemovals := 0
				for _, r := range res.Removals {
					gotRemovals += len(r)
				}
				if gotRemovals != wantRemovals {
					t.Fatalf("seed %d: removed %d edges, centralized removed %d",
						seed, gotRemovals, wantRemovals)
				}
			}
		})
	}
}

// ... and on 120 random problems.
func TestAgreesWithCentralizedOnRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9000))
	for i := 0; i < 120; i++ {
		p := gen.Random(rng, gen.Options{
			Consumers:       1 + rng.Intn(3),
			Brokers:         1 + rng.Intn(3),
			Producers:       1 + rng.Intn(3),
			MaxPrice:        50,
			PoorBroker:      i%4 == 0,
			DirectTrustProb: 0.3,
		})
		wantFeasible, wantRemovals := centralVerdict(t, p)
		res, err := Reduce(model.MustCompile(p), int64(i))
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if res.Feasible != wantFeasible {
			t.Fatalf("instance %d: distributed %v != centralized %v", i, res.Feasible, wantFeasible)
		}
		gotRemovals := 0
		for _, r := range res.Removals {
			gotRemovals += len(r)
		}
		if gotRemovals != wantRemovals {
			t.Fatalf("instance %d: removed %d, want %d", i, gotRemovals, wantRemovals)
		}
	}
}

// Message complexity: each removal is announced at most once per edge,
// so announcements are bounded by the edge count.
func TestMessageComplexityBoundedByEdges(t *testing.T) {
	t.Parallel()
	for _, k := range []int{1, 4, 16, 64} {
		p := model.MustCompile(gen.Chain(k, model.Money(k+10)))
		g := sequencing.Build(p)
		res, err := Reduce(p, 1)
		if err != nil {
			t.Fatalf("Reduce = %v", err)
		}
		if !res.Feasible {
			t.Fatalf("chain %d infeasible", k)
		}
		if res.Messages > len(g.Edges) {
			t.Errorf("chain %d: %d messages > %d edges", k, res.Messages, len(g.Edges))
		}
	}
}

// The poor broker's local agent reaches the same impasse and reports the
// residual edges.
func TestPoorBrokerImpasseDistributed(t *testing.T) {
	t.Parallel()
	res, err := Reduce(model.MustCompile(paperex.PoorBroker()), 5)
	if err != nil {
		t.Fatalf("Reduce = %v", err)
	}
	if res.Feasible {
		t.Fatalf("distributed reduction found the poor broker feasible")
	}
	if res.RemainingEdges != 2 {
		t.Errorf("remaining = %d, want the broker's two red edges", res.RemainingEdges)
	}
}

func TestRejectsInvalidProblem(t *testing.T) {
	t.Parallel()
	p := paperex.Example1()
	p.Exchanges[0].Principal = "ghost"
	if _, err := model.Compile(p); err == nil {
		t.Fatalf("invalid problem accepted")
	}
}
