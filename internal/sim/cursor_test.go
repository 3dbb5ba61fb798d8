package sim

import (
	"os"
	"path/filepath"
	"testing"

	"trustseq/internal/core"
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

// A restored principal starts its wait cursor at 0 and re-derives it.
// Checkpoint a population run at its middle delivery, when producers
// are part-way through their steps' waits, and require the resumed run to finish
// with the uninterrupted run's trace and settlement root.
func TestRestoredCursorResumesIdentically(t *testing.T) {
	t.Parallel()
	pl := plan(t, gen.Population(300, 0, 10))
	opts := Options{Seed: 5, Deadline: 20000, VLog: true}
	full, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pop.ckpt")
	ckpt := opts
	ckpt.Checkpoint = &CheckpointSpec{Path: path, At: full.Trace[len(full.Trace)/2].At}
	if _, err := Run(pl, ckpt); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := resumeFrom(t, pl, opts, data)
	requireSameOutcome(t, full, restored)
	if full.SettlementRoot != restored.SettlementRoot {
		t.Fatalf("settlement root %s after restore, %s uninterrupted", restored.SettlementRoot, full.SettlementRoot)
	}
}

// resumeFrom is RestoreRun with a look at the restored principals
// before the event loop resumes: every cursor is back at 0, and at
// least one principal has already observed some of its current step's
// waits, so the resumed run must re-derive a non-zero cursor.
func resumeFrom(t *testing.T, pl *core.Plan, opts Options, data []byte) *Result {
	t.Helper()
	rs, err := setupRun(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.inject(data); err != nil {
		t.Fatal(err)
	}
	partway := 0
	for _, n := range rs.principals {
		if n.waited != 0 {
			t.Fatalf("%s: restored with cursor %d, want 0", n.Self, n.waited)
		}
		if n.next < len(n.script) {
			if w := n.script[n.next].waitFor; len(w) > 0 && n.seen.has(w[0]) {
				partway++
			}
		}
	}
	if partway == 0 {
		t.Fatal("the checkpoint caught no principal part-way through its waits")
	}
	if err := rs.net.loop(); err != nil {
		t.Fatal(err)
	}
	res, err := rs.assemble()
	if err != nil {
		t.Fatal(err)
	}
	return res
}
