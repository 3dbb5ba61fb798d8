package search

import (
	"math/rand"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/safety"
)

// assertWitnessReplays replays a feasible verdict's witness through
// applyMove + ForceCompletionsAll and checks that every prefix keeps
// every principal safe under the search's mode and that the final state
// completes every exchange. This guards the trail bookkeeping in dfs
// (the append(trail, mv) aliasing) end to end: a corrupted witness would
// fail to replay or complete.
func assertWitnessReplays(t *testing.T, p *model.Problem, v Verdict, mode Mode) {
	t.Helper()
	if !v.Feasible {
		t.Fatalf("witness replay requested for infeasible verdict")
	}
	exec := safety.NewExec(model.MustCompile(p))
	if err := exec.ForceCompletionsAll(); err != nil {
		t.Fatalf("initial completions: %v", err)
	}
	checkSafe := func(step int) {
		t.Helper()
		for _, pa := range p.Parties {
			if pa.IsTrusted() {
				continue
			}
			safe := false
			switch mode {
			case ModeStrong:
				safe = safety.SafeFor(exec, pa.ID)
			default:
				safe = safety.AssetSafe(exec, pa.ID)
			}
			if !safe {
				t.Fatalf("%s: prefix %d/%d leaves %s unsafe (mode %v)", p.Name, step, len(v.Sequence), pa.ID, mode)
			}
		}
	}
	checkSafe(0)
	for i, mv := range v.Sequence {
		if err := applyMove(exec, mv); err != nil {
			t.Fatalf("%s: witness step %d (%v) does not apply: %v", p.Name, i, mv, err)
		}
		if err := exec.ForceCompletionsAll(); err != nil {
			t.Fatalf("%s: completions after step %d: %v", p.Name, i, err)
		}
		checkSafe(i + 1)
	}
	if !safety.Completed(exec) {
		t.Fatalf("%s: witness replay does not complete the exchange (mode %v): %v", p.Name, mode, v.Sequence)
	}
}

// Every feasible paper example must yield a replayable witness, from the
// serial and the parallel search alike.
func TestPaperWitnessesReplay(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []Mode{ModeAssets, ModeStrong} {
				serial := verdict(t, p, mode)
				if serial.Feasible {
					assertWitnessReplays(t, p, serial, mode)
				}
				par, err := FeasibleObs(model.MustCompile(p), mode, 4, nil)
				if err != nil {
					t.Fatalf("FeasibleObs(%v, 4 workers) = %v", mode, err)
				}
				if par.Feasible {
					assertWitnessReplays(t, p, par, mode)
				}
			}
		})
	}
}

// The same guarantee over a random corpus.
func TestRandomWitnessesReplay(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 25; i++ {
		p := gen.Random(rng, gen.Options{
			Consumers: 1, Brokers: 2, Producers: 2,
			MaxPrice: 40, DirectTrustProb: 0.3,
		})
		if len(p.Exchanges) > 8 {
			continue
		}
		for _, mode := range []Mode{ModeAssets, ModeStrong} {
			if v := verdict(t, p, mode); v.Feasible {
				assertWitnessReplays(t, p, v, mode)
			}
			pv, err := FeasibleObs(model.MustCompile(p), mode, 3, nil)
			if err != nil {
				t.Fatalf("instance %d: %v", i, err)
			}
			if pv.Feasible {
				assertWitnessReplays(t, p, pv, mode)
			}
		}
	}
}
