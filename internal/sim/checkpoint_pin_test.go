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

// TestCheckpointBytesPinned pins the SHA-256 of the TSQ8 file three
// fixed runs write at fixed ticks. The other checkpoint tests compare a
// restore with a full run of the same build; this one fails when the
// encoding of any field changes. Between them the cases checkpoint
// non-empty seen, sent and recall sent sets, and received, refunded and
// collateral records in the trusted nodes' escrow logs.
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
			sum:  "f43bab0acbc71a08d5be03de00fc8d9472d24b13157fd1caff37110749f88c8a",
		},
		{
			name: "indemnified-crash-dup-reorder",
			pl:   plan(t, paperex.Example2Indemnified()),
			opts: Options{Seed: 3, Deadline: 40, Faults: &FaultPlan{
				DupRate: 0.3, ReorderRate: 0.4, ReorderBound: 6,
				Crashes: []CrashEvent{{Node: paperex.Trusted1, At: 5, Downtime: 12}},
			}},
			at:  18,
			sum: "7804fdf6541d353711f5f6868ffe57a4a771555ff70b6b04148dcb3ba82e6a20",
		},
		{
			name: "population-300-one-defector",
			pl:   plan(t, gen.Population(300, 0, 10)),
			opts: Options{Seed: 5, Deadline: 20000, Defectors: map[model.PartyID]int{"b100": 1}},
			at:   40,
			sum:  "a6582b20624115f758270b3dff41fc261cbe0f0db05b0594ab1a9641b7ad37dd",
		},
	}
	total := ckptContents{wal: make(map[walOp]int)}
	for _, tc := range cases {
		path := filepath.Join(t.TempDir(), tc.name+".tsq8")
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
		rs, err := setupRun(tc.pl, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.inject(data); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c := checkpointContents(rs)
		t.Logf("%s: %d bytes, %s", tc.name, len(data), c)
		total.add(c)
	}
	if total.seen == 0 || total.sent == 0 || total.recallSent == 0 ||
		total.wal[walReceived] == 0 || total.wal[walRefunded] == 0 || total.wal[walCollateral] == 0 {
		t.Fatalf("the pinned checkpoints leave part of the node state empty: %s", total)
	}
}
