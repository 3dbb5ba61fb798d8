package sequencing

import (
	"math/rand"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/interaction"
	"trustseq/internal/model"
)

// reduceNaive is the rescan baseline: under a constant priority,
// ReducePreferred removes the lowest-indexed applicable edge each round.
func reduceNaive(g *Graph) *Reduction {
	return ReducePreferred(g, func(Edge) int { return 0 })
}

// reduceRandomOrder removes a uniformly random applicable edge each round.
func reduceRandomOrder(g *Graph, rng *rand.Rand) *Reduction {
	return ReducePreferred(g, func(Edge) int { return rng.Int() })
}

// E9 over random problems: across 150 random markets (varied party
// counts, poor brokers, direct trust), the worklist reducer, the naive
// reducer and 10 random-order reductions all agree — on the verdict AND
// on the number of removable edges.
func TestConfluenceOnRandomProblems(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	orderRng := rand.New(rand.NewSource(32))
	for i := 0; i < 150; i++ {
		p := gen.Random(rng, gen.Options{
			Consumers:       1 + rng.Intn(3),
			Brokers:         1 + rng.Intn(3),
			Producers:       1 + rng.Intn(3),
			MaxPrice:        60,
			PoorBroker:      i%4 == 0,
			DirectTrustProb: 0.3,
		})
		ig, err := interaction.New(p)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		g, err := NewSplit(ig)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		base := Reduce(g, nil)
		naive := reduceNaive(g)
		if base.Feasible() != naive.Feasible() || len(base.Removals) != len(naive.Removals) {
			t.Fatalf("instance %d: worklist (%v,%d) != naive (%v,%d)",
				i, base.Feasible(), len(base.Removals), naive.Feasible(), len(naive.Removals))
		}
		for trial := 0; trial < 10; trial++ {
			r := reduceRandomOrder(g, orderRng)
			if r.Feasible() != base.Feasible() {
				t.Fatalf("instance %d trial %d: random order verdict %v != %v",
					i, trial, r.Feasible(), base.Feasible())
			}
			if len(r.Removals) != len(base.Removals) {
				t.Fatalf("instance %d trial %d: removal count %d != %d",
					i, trial, len(r.Removals), len(base.Removals))
			}
		}
	}
}

// Reduction is idempotent on its input: reducing the same graph twice
// yields identical traces (the graph itself is never mutated).
func TestReduceDoesNotMutateGraph(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(77))
	p := gen.Random(rng, gen.Options{Consumers: 2, Brokers: 2, Producers: 2, MaxPrice: 40})
	ig, err := interaction.New(p)
	if err != nil {
		t.Fatalf("interaction: %v", err)
	}
	g, err := NewSplit(ig)
	if err != nil {
		t.Fatalf("NewSplit: %v", err)
	}
	a, b := Reduce(g, nil), Reduce(g, nil)
	if a.Feasible() != b.Feasible() || len(a.Removals) != len(b.Removals) {
		t.Fatalf("second reduction differs")
	}
	for i := range a.Removals {
		if a.Removals[i] != b.Removals[i] {
			t.Fatalf("removal %d differs: %v vs %v", i, a.Removals[i], b.Removals[i])
		}
	}
}

// Monotonicity of trust: adding a direct-trust declaration can only help
// (a feasible problem never becomes infeasible when someone extends
// trust). The paper never states this explicitly; it follows from the
// persona clause only ever relaxing Rule #1, and it holds on 100 random
// instances.
func TestTrustMonotonicity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 100; i++ {
		p := gen.Random(rng, gen.Options{
			Consumers: 1 + rng.Intn(2), Brokers: 1 + rng.Intn(2), Producers: 1 + rng.Intn(2),
			MaxPrice: 40,
		})
		ig, err := interaction.New(p)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		g, err := NewSplit(ig)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		before := Reduce(g, nil).Feasible()
		if !before {
			continue
		}
		// Add trust from every source to its broker.
		trusted := p.Clone()
		for _, e := range p.Exchanges {
			for _, other := range p.Exchanges {
				if other.Trusted != e.Trusted || other.Principal == e.Principal {
					continue
				}
				// producer trusts the counterparty broker
				pa, _ := p.Party(e.Principal)
				pb, _ := p.Party(other.Principal)
				if pa.Role.String() == "producer" && pb.Role.String() == "broker" {
					trusted.DirectTrust = append(trusted.DirectTrust,
						trustDecl(e.Principal, other.Principal))
				}
			}
		}
		ig2, err := interaction.New(trusted)
		if err != nil {
			continue // duplicate declarations etc.
		}
		g2, err := NewSplit(ig2)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !Reduce(g2, nil).Feasible() {
			t.Fatalf("instance %d: adding trust made a feasible problem infeasible", i)
		}
	}
}

func trustDecl(truster, trustee model.PartyID) model.TrustDecl {
	return model.TrustDecl{Truster: truster, Trustee: trustee}
}
