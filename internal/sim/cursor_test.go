package sim

import (
	"testing"

	"trustseq/internal/gen"
)

// PrincipalNode's wait cursor carries across steps only because each
// step's waitFor extends the previous step's. Check that invariant for
// every principal BuildPrincipalNodes derives over the generator corpus
// and a population.
func TestWaitForIsPrefixAcrossSteps(t *testing.T) {
	t.Parallel()
	plans := append(chaosCorpus(t), plan(t, gen.Population(300, 0, 10)))
	steps := 0
	for _, pl := range plans {
		for _, n := range BuildPrincipalNodes(pl, nil) {
			for k := 1; k < len(n.script); k++ {
				prev, cur := n.script[k-1].waitFor, n.script[k].waitFor
				if len(prev) > len(cur) {
					t.Fatalf("%s/%s: step %d waits on %d actions, step %d on %d",
						pl.Problem.Name, n.Self, k-1, len(prev), k, len(cur))
				}
				for i, w := range prev {
					if cur[i] != w {
						t.Fatalf("%s/%s: step %d wait %d is %v, step %d has %v",
							pl.Problem.Name, n.Self, k, i, cur[i], k-1, w)
					}
				}
				steps++
			}
		}
	}
	if steps == 0 {
		t.Fatal("corpus has no principal with two or more steps")
	}
}

// Checkpoint a population run at its middle delivery, when producers
// are part-way through their steps' waits, and require the restore to
// finish with the uninterrupted run's trace, summary and settlement
// root.
func TestRestoredCursorResumesIdentically(t *testing.T) {
	t.Parallel()
	pl := plan(t, gen.Population(300, 0, 10))
	opts := Options{Seed: 5, Deadline: 20000, VLog: true}
	base, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, restored, _ := checkpointedRun(t, pl, opts, base.Trace[len(base.Trace)/2].At)
	requireSameOutcome(t, full, restored)
	if full.SettlementRoot != restored.SettlementRoot {
		t.Fatalf("settlement root %s after restore, %s uninterrupted", restored.SettlementRoot, full.SettlementRoot)
	}
}
