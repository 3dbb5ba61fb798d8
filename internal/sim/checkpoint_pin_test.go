package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// TestCheckpointBytesPinned pins the SHA-256 of the record three fixed
// runs write at fixed ticks. The other checkpoint tests compare a
// restore with a full run of the same build; this one fails when the
// encoding of any field changes — the plan or options digest, the
// prefix's count, or the settlement-log encoding under its root.
func TestCheckpointBytesPinned(t *testing.T) {
	t.Parallel()
	v1 := plan(t, paperex.Example2Variant1())
	cases := []struct {
		name string
		pl   *core.Plan
		opts Options
		at   Time
		sum  string
	}{
		{
			name: "variant1-chaos-recall",
			pl:   v1,
			opts: ChaosOptions(rand.New(rand.NewSource(22)), v1.Problem, AllFaults(), 22, 0),
			at:   130,
			sum:  "c4d54751fa2bfe4fbfec0122754bc9ed882021285f23b65aa658cabbe95861b5",
		},
		{
			name: "indemnified-crash-dup-reorder",
			pl:   plan(t, paperex.Example2Indemnified()),
			opts: Options{Seed: 3, Deadline: 40, Faults: &FaultPlan{
				DupRate: 0.3, ReorderRate: 0.4, ReorderBound: 6,
				Crashes: []CrashEvent{{Node: paperex.Trusted1, At: 5, Downtime: 12}},
			}},
			at:  18,
			sum: "62670acec3e652660eb816c6487cfebeae2edce218b776154283f29a1955fa4b",
		},
		{
			name: "population-300-one-defector",
			pl:   plan(t, gen.Population(300, 0, 10)),
			opts: Options{Seed: 5, Deadline: 20000, Defectors: map[model.PartyID]int{"b100": 1}},
			at:   40,
			sum:  "c1e2fb0b7a29896ddbd937c32a2214a32f0595a0bdca87111295f01e358fd253",
		},
	}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), tc.name+".ckpt")
		ckpt := tc.opts
		ckpt.Checkpoint = &CheckpointSpec{Path: path, At: tc.at}
		if _, err := Run(tc.pl, ckpt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.sum {
			t.Errorf("%s: checkpoint SHA-256 %s, pinned %s", tc.name, got, tc.sum)
		}
		c, err := decodeCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.count == 0 {
			t.Errorf("%s: the checkpoint names an empty prefix", tc.name)
		}
		t.Logf("%s: %d bytes, %d entries before tick %d", tc.name, len(data), c.count, c.at)
	}
}
