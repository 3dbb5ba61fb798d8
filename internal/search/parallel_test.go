package search

import (
	"math/rand"
	"reflect"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// The packed-fingerprint memo must be a pure representation change: the
// serial search with hashed keys returns the identical verdict — witness
// and explored count included — as the string-keyed search.
func TestHashedKeysChangeNothingSerial(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		for _, mode := range []Mode{ModeAssets, ModeStrong} {
			hashed, err := feasibleConfigured(model.MustCompile(p), mode, 1, false, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			str, err := feasibleConfigured(model.MustCompile(p), mode, 1, true, nil)
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
// safety modes, the parallel search verdict equals the serial verdict,
// and hashed fingerprints never change a verdict.
func TestParallelMatchesSerial(t *testing.T) {
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
			serial, err := Feasible(p, mode)
			if err != nil {
				t.Fatalf("seed %d: serial: %v", seed, err)
			}
			serialStr, err := feasibleConfigured(model.MustCompile(p), mode, 1, true, nil)
			if err != nil {
				t.Fatalf("seed %d: string-keyed: %v", seed, err)
			}
			if !reflect.DeepEqual(serial, serialStr) {
				t.Errorf("seed %d mode=%v: hashed %+v != string %+v", seed, mode, serial, serialStr)
			}
			for _, workers := range []int{2, 4} {
				par, err := FeasibleObs(model.MustCompile(p), mode, workers, nil)
				if err != nil {
					t.Fatalf("seed %d: parallel(%d): %v", seed, workers, err)
				}
				if par.Feasible != serial.Feasible {
					t.Errorf("seed %d mode=%v workers=%d: parallel=%v serial=%v",
						seed, mode, workers, par.Feasible, serial.Feasible)
				}
			}
			parStr, err := feasibleConfigured(model.MustCompile(p), mode, 3, true, nil)
			if err != nil {
				t.Fatalf("seed %d: parallel string-keyed: %v", seed, err)
			}
			if parStr.Feasible != serial.Feasible {
				t.Errorf("seed %d mode=%v: parallel string-keyed=%v serial=%v",
					seed, mode, parStr.Feasible, serial.Feasible)
			}
		}
	}
	if checked < seeds/2 {
		t.Fatalf("only %d/%d seeds produced tractable problems; loosen the size guard", checked, seeds)
	}
}

// Parallel search agrees with serial on every paper example, at several
// worker counts including degenerate ones.
func TestParallelPaperExamples(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []Mode{ModeAssets, ModeStrong} {
				serial := verdict(t, p, mode)
				for _, workers := range []int{0, 1, 2, 8} {
					par, err := FeasibleObs(model.MustCompile(p), mode, workers, nil)
					if err != nil {
						t.Fatalf("FeasibleObs(%v, %d, nil) = %v", mode, workers, err)
					}
					if par.Feasible != serial.Feasible {
						t.Errorf("mode=%v workers=%d: parallel=%v serial=%v",
							mode, workers, par.Feasible, serial.Feasible)
					}
				}
			}
		})
	}
}

// Chains exercise deeper recursion; verify agreement along the E13 family.
func TestParallelChains(t *testing.T) {
	t.Parallel()
	for k := 0; k <= 3; k++ {
		p := gen.Chain(k, 30)
		for _, mode := range []Mode{ModeAssets, ModeStrong} {
			serial := verdict(t, p, mode)
			par, err := FeasibleObs(model.MustCompile(p), mode, 4, nil)
			if err != nil {
				t.Fatalf("chain %d: %v", k, err)
			}
			if par.Feasible != serial.Feasible {
				t.Errorf("chain %d mode=%v: parallel=%v serial=%v", k, mode, par.Feasible, serial.Feasible)
			}
		}
	}
}

// The fan-out takes only a compiled problem; an invalid one never
// compiles.
func TestParallelRejectsInvalidProblem(t *testing.T) {
	t.Parallel()
	p := paperex.Example1() // fresh copy, safe to corrupt
	p.Exchanges[0].Principal = "nobody"
	if _, err := model.Compile(p); err == nil {
		t.Fatal("invalid problem accepted")
	}
}
