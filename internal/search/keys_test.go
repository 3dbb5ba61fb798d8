package search

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// The packed-fingerprint memo must be a pure representation change: the
// search with hashed keys returns the identical verdict — witness and
// explored count included — as the string-keyed search.
func TestHashedKeysChangeNothingSerial(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		for _, mode := range []Mode{ModeAssets, ModeStrong} {
			hashed, err := feasibleConfigured(model.MustCompile(p), mode, false, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			str, err := feasibleConfigured(model.MustCompile(p), mode, true, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(hashed, str) {
				t.Errorf("%s mode=%v: hashed verdict %+v != string verdict %+v", name, mode, hashed, str)
			}
		}
	}
}

// E10 at property-test scale: over a ~100-seed gen.Random corpus and both
// safety modes, hashed fingerprints never change a verdict.
func TestHashedKeysMatchStringKeysRandom(t *testing.T) {
	t.Parallel()
	const seeds = 100
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := gen.Random(rng, gen.Options{
			Consumers: 1, Brokers: 2, Producers: 2,
			MaxPrice: 30, DirectTrustProb: 0.25,
		})
		if len(p.Exchanges) > 8 {
			continue // keep the exhaustive searches fast; enough seeds remain
		}
		checked++
		for _, mode := range []Mode{ModeAssets, ModeStrong} {
			hashed, err := Feasible(p, mode)
			if err != nil {
				t.Fatalf("seed %d: hashed: %v", seed, err)
			}
			str, err := feasibleConfigured(model.MustCompile(p), mode, true, nil)
			if err != nil {
				t.Fatalf("seed %d: string-keyed: %v", seed, err)
			}
			if !reflect.DeepEqual(hashed, str) {
				t.Errorf("seed %d mode=%v: hashed %+v != string %+v", seed, mode, hashed, str)
			}
		}
	}
	if checked < seeds/2 {
		t.Fatalf("only %d/%d seeds produced tractable problems; loosen the size guard", checked, seeds)
	}
}

// assertConcurrentSearchesAgree runs the search of one shared compiled
// problem from several goroutines at once — the parallelism the sweep's
// pool and the service's engine slots have — and checks that every run
// returns the verdict of a lone Feasible call, witness and explored
// count included.
func assertConcurrentSearchesAgree(t *testing.T, p *model.Problem) {
	t.Helper()
	const runs = 4
	c := model.MustCompile(p)
	for _, mode := range []Mode{ModeAssets, ModeStrong} {
		want := verdict(t, p, mode)
		got := make([]Verdict, runs)
		errs := make([]error, runs)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = FeasibleObs(c, mode, nil)
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s mode=%v run %d: %v", p.Name, mode, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%s mode=%v run %d: concurrent %+v != lone %+v", p.Name, mode, i, got[i], want)
			}
		}
	}
}

// Concurrent searches agree with a lone search on every paper example.
func TestParallelPaperExamples(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertConcurrentSearchesAgree(t, p)
		})
	}
}

// Chains exercise deeper recursion; verify agreement along the E13 family.
func TestParallelChains(t *testing.T) {
	t.Parallel()
	for k := 0; k <= 3; k++ {
		assertConcurrentSearchesAgree(t, gen.Chain(k, 30))
	}
}
