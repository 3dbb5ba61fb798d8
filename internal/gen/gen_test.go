package gen

import (
	"math/rand"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/model"
)

func TestPairValidFeasible(t *testing.T) {
	t.Parallel()
	p := Pair(42)
	if _, err := model.Compile(p); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	plan, err := core.Synthesize(p)
	if err != nil || !plan.Feasible {
		t.Fatalf("pair plan: %v feasible=%v", err, plan != nil && plan.Feasible)
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v", err)
	}
}

func TestChainShapes(t *testing.T) {
	t.Parallel()
	for k := 0; k <= 5; k++ {
		p := Chain(k, 100)
		if _, err := model.Compile(p); err != nil {
			t.Fatalf("Chain(%d) invalid: %v", k, err)
		}
		wantExchanges := 2 * (k + 1)
		if len(p.Exchanges) != wantExchanges {
			t.Errorf("Chain(%d) exchanges = %d, want %d", k, len(p.Exchanges), wantExchanges)
		}
		wantParties := 2 + k + (k + 1) // c, p, brokers, trusteds
		if len(p.Parties) != wantParties {
			t.Errorf("Chain(%d) parties = %d, want %d", k, len(p.Parties), wantParties)
		}
	}
	// Tiny retail prices are adjusted to keep every hop positive.
	p := Chain(5, 1)
	if _, err := model.Compile(p); err != nil {
		t.Fatalf("adjusted chain invalid: %v", err)
	}
}

func TestStarShape(t *testing.T) {
	t.Parallel()
	p := Star([]model.Money{10, 20, 30})
	if _, err := model.Compile(p); err != nil {
		t.Fatalf("Star invalid: %v", err)
	}
	if len(p.Exchanges) != 12 {
		t.Errorf("exchanges = %d, want 12", len(p.Exchanges))
	}
	idx := ConsumerStarIndices(3)
	for i, ei := range idx {
		e := p.Exchanges[ei]
		if e.Principal != "c" {
			t.Errorf("index %d: principal %s", i, e.Principal)
		}
		if e.Gives.Amount != []model.Money{10, 20, 30}[i] {
			t.Errorf("index %d: price %v", i, e.Gives.Amount)
		}
	}
	// Wholesale price floor of $1.
	tiny := Star([]model.Money{1})
	if _, err := model.Compile(tiny); err != nil {
		t.Fatalf("tiny star invalid: %v", err)
	}
}

func TestRandomAlwaysValid(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		p := Random(rng, Options{
			Consumers: 1 + i%3, Brokers: 1 + i%2, Producers: 1 + i%4,
			MaxPrice: 30, PoorBroker: i%5 == 0, DirectTrustProb: 0.4,
		})
		if _, err := model.Compile(p); err != nil {
			t.Fatalf("instance %d invalid: %v", i, err)
		}
		// Synthesis never errors (feasibility may vary).
		if _, err := core.Synthesize(p); err != nil {
			t.Fatalf("instance %d synthesize: %v", i, err)
		}
	}
}

func TestRandomDefaultsApplied(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	p := Random(rng, Options{})
	if _, err := model.Compile(p); err != nil {
		t.Fatalf("defaulted instance invalid: %v", err)
	}
	if len(p.Exchanges) == 0 {
		t.Fatalf("no exchanges generated")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	a := Random(rand.New(rand.NewSource(9)), Options{Consumers: 2, Brokers: 2, Producers: 2})
	b := Random(rand.New(rand.NewSource(9)), Options{Consumers: 2, Brokers: 2, Producers: 2})
	if len(a.Exchanges) != len(b.Exchanges) {
		t.Fatalf("seeded generation differs: %d vs %d", len(a.Exchanges), len(b.Exchanges))
	}
	for i := range a.Exchanges {
		if a.Exchanges[i].Gives.Amount != b.Exchanges[i].Gives.Amount {
			t.Fatalf("exchange %d differs", i)
		}
	}
}

func TestParallelShape(t *testing.T) {
	t.Parallel()
	for k := 1; k <= 4; k++ {
		p := Parallel(k, 10)
		if _, err := model.Compile(p); err != nil {
			t.Fatalf("Parallel(%d) invalid: %v", k, err)
		}
		if len(p.Exchanges) != 2*k || len(p.Parties) != 3*k {
			t.Errorf("Parallel(%d): %d exchanges, %d parties", k, len(p.Exchanges), len(p.Parties))
		}
		plan, err := core.Synthesize(p)
		if err != nil || !plan.Feasible {
			t.Fatalf("Parallel(%d): %v feasible=%v", k, err, plan != nil && plan.Feasible)
		}
	}
}

func TestPopulationFeasible(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 3, 8, 40} {
		p := Population(n, 0, 10)
		if _, err := model.Compile(p); err != nil {
			t.Fatalf("Population(%d).Validate = %v", n, err)
		}
		plan, err := core.Synthesize(p)
		if err != nil {
			t.Fatalf("Population(%d): %v", n, err)
		}
		if !plan.Feasible {
			t.Fatalf("Population(%d) infeasible", n)
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("Population(%d).Verify = %v", n, err)
		}
		if len(p.Exchanges) != 4*n {
			t.Fatalf("Population(%d): %d exchanges, want %d", n, len(p.Exchanges), 4*n)
		}
	}
}

func TestPopulationTierSizing(t *testing.T) {
	t.Parallel()
	p := Population(1024, 0, 10)
	brokers, producers := 0, 0
	for _, pa := range p.Parties {
		switch pa.Role {
		case model.RoleBroker:
			brokers++
		case model.RoleProducer:
			producers++
		}
	}
	if brokers != 1024 || producers != 4 {
		t.Fatalf("tiers = %d brokers, %d producers; want 1024, 4", brokers, producers)
	}
	// An explicit producer-tier size is honored.
	p = Population(10, 2, 10)
	producers = 0
	for _, pa := range p.Parties {
		if pa.Role == model.RoleProducer {
			producers++
		}
	}
	if producers != 2 {
		t.Fatalf("explicit producers = %d, want 2", producers)
	}
}
