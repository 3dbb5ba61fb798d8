package sweep

import (
	"reflect"
	"strings"
	"testing"
)

// A sweep's report must not depend on the worker count — that is the
// contract the serial-vs-parallel benchmarks rely on.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	base := Config{N: 20, Seed: 5}
	serial := Run(withWorkers(base, 1))
	for _, workers := range []int{2, 7} {
		par := Run(withWorkers(base, workers))
		for i := range serial.Results {
			if serial.Results[i] != par.Results[i] {
				t.Fatalf("workers=%d result %d differs:\nserial  %+v\nparallel %+v",
					workers, i, serial.Results[i], par.Results[i])
			}
		}
		if serial.Stats != par.Stats {
			t.Fatalf("workers=%d stats differ: %+v vs %+v", workers, serial.Stats, par.Stats)
		}
	}
}

func withWorkers(c Config, w int) Config {
	c.Workers = w
	return c
}

// The agreement properties must hold on every random instance: the graph
// verdict is sound w.r.t. asset search, strong implies assets, and petri
// coverability matches asset search where comparable.
func TestRandomSweepHasNoViolations(t *testing.T) {
	t.Parallel()
	rep := Run(Config{N: 30, Seed: 42})
	if v := rep.Stats.Violations(); v != 0 {
		for _, r := range rep.Results {
			if r.Err != "" || (r.GraphFeasible && !r.SearchSkipped && !r.AssetsFeasible) ||
				(r.StrongFeasible && !r.AssetsFeasible) ||
				(r.PetriComparable && r.PetriFound != r.AssetsFeasible) {
				t.Logf("violating instance: %+v", r)
			}
		}
		t.Fatalf("violations = %d, want 0\n%s", v, rep.Summary())
	}
	if rep.Stats.Problems != 30 {
		t.Fatalf("problems = %d, want 30", rep.Stats.Problems)
	}
}

// Chains are feasible at every depth; stars with ≥2 conjoined pieces are
// graph-infeasible without indemnities (Figure 7).
func TestFamilies(t *testing.T) {
	t.Parallel()
	chains := Run(Config{N: 6, Seed: 1, Family: FamilyChain})
	if chains.Stats.Feasible != 6 || chains.Stats.Violations() != 0 {
		t.Fatalf("chain sweep: %+v", chains.Stats)
	}
	stars := Run(Config{N: 6, Seed: 1, Family: FamilyStar, MaxPieces: 2})
	if stars.Stats.Violations() != 0 {
		t.Fatalf("star sweep violations: %+v", stars.Stats)
	}
	// Indices 0,2,4 have one piece (feasible), 1,3,5 have two (infeasible).
	for i, r := range stars.Results {
		wantFeasible := i%2 == 0
		if r.GraphFeasible != wantFeasible {
			t.Errorf("star %d: graph feasible = %v, want %v (%+v)", i, r.GraphFeasible, wantFeasible, r)
		}
	}
}

func TestParseFamily(t *testing.T) {
	t.Parallel()
	for _, tt := range []struct {
		in   string
		want Family
		ok   bool
	}{
		{"random", FamilyRandom, true},
		{"chain", FamilyChain, true},
		{"star", FamilyStar, true},
		{"petri", 0, false},
	} {
		got, err := ParseFamily(tt.in)
		if (err == nil) != tt.ok || (tt.ok && got != tt.want) {
			t.Errorf("ParseFamily(%q) = %v, %v", tt.in, got, err)
		}
		if tt.ok && got.String() != tt.in {
			t.Errorf("Family %v renders as %q, want %q", got, got.String(), tt.in)
		}
	}
}

func TestSummaryMentionsKeyCounts(t *testing.T) {
	t.Parallel()
	rep := Run(Config{N: 5, Seed: 3})
	s := rep.Summary()
	for _, want := range []string{"graph-feasible", "assets-feasible", "petri-completable", "violations"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// The zero config resolves to documented defaults.
func TestConfigDefaults(t *testing.T) {
	t.Parallel()
	c := Config{}.withDefaults()
	want := Config{
		N: 50, Workers: c.Workers, Seed: 0, Family: FamilyRandom,
		Gen: c.Gen, MaxDepth: 3, MaxPieces: 2, MaxSearchExchanges: 10,
		PetriBudget: 1 << 17,
	}
	if c.Workers < 1 || c.Gen.Consumers != 1 || c.Gen.Brokers != 2 || c.Gen.Producers != 2 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("defaults = %+v, want %+v", c, want)
	}
}
