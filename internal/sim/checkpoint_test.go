package sim

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trustseq/internal/core"
)

// checkpointedRun executes plan twice: once uninterrupted, once with a
// checkpoint written at tick `at` and resumed via RestoreRun. It
// returns both results plus the checkpoint path.
func checkpointedRun(t *testing.T, pl *core.Plan, opts Options, at Time) (full, restored *Result, path string) {
	t.Helper()
	full, err := Run(pl, opts)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	path = filepath.Join(t.TempDir(), "run.ckpt")
	opts.Checkpoint = &CheckpointSpec{Path: path, At: at}
	if _, err := Run(pl, opts); err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	opts.Checkpoint = nil
	restored, err = RestoreRun(pl, opts, path)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return full, restored, path
}

// requireSameOutcome asserts the restored run is indistinguishable from
// the uninterrupted one: byte-identical trace, identical fault stats,
// and identical final balances (via the deterministic summary).
func requireSameOutcome(t *testing.T, full, restored *Result) {
	t.Helper()
	if a, b := RenderTrace(full.Trace), RenderTrace(restored.Trace); a != b {
		t.Fatalf("trace diverged after restore:\n--- full ---\n%s\n--- restored ---\n%s", a, b)
	}
	if full.FaultStats != restored.FaultStats {
		t.Fatalf("fault stats diverged: %+v vs %+v", full.FaultStats, restored.FaultStats)
	}
	if a, b := full.Summary(), restored.Summary(); a != b {
		t.Fatalf("summary diverged:\n--- full ---\n%s\n--- restored ---\n%s", a, b)
	}
	if full.DroppedNotifies != restored.DroppedNotifies {
		t.Fatalf("dropped notifies diverged: %d vs %d", full.DroppedNotifies, restored.DroppedNotifies)
	}
}

// A checkpoint written mid-chaos and restored must replay the remaining
// run tick-for-tick across every generator family in the corpus.
func TestCheckpointRestoreIdenticalAcrossCorpus(t *testing.T) {
	t.Parallel()
	for pi, pl := range chaosCorpus(t) {
		for s := 0; s < 2; s++ {
			seed := int64(pi)*7919 + int64(s)
			rng := rand.New(rand.NewSource(seed))
			opts := ChaosOptions(rng, pl.Problem, AllFaults(), seed, 0)
			base, err := Run(pl, opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", pl.Problem.Name, seed, err)
			}
			for _, at := range []Time{1, base.Duration / 2, base.Duration} {
				full, restored, _ := checkpointedRun(t, pl, opts, at)
				requireSameOutcome(t, full, restored)
			}
		}
	}
}

// Sweeping the checkpoint tick across the whole run catches positional
// bugs: mid-batch events, in-flight transfers, down nodes, pending
// crash windows.
func TestCheckpointAtManyTicksIdentical(t *testing.T) {
	t.Parallel()
	pl := chaosCorpus(t)[0]
	seed := int64(42)
	rng := rand.New(rand.NewSource(seed))
	opts := ChaosOptions(rng, pl.Problem, AllFaults(), seed, 0)
	base, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	step := base.Duration / 16
	if step < 1 {
		step = 1
	}
	for at := Time(0); at <= base.Duration; at += step {
		full, restored, _ := checkpointedRun(t, pl, opts, at)
		requireSameOutcome(t, full, restored)
	}
}

// writeChaosCheckpoint produces one real checkpoint file to corrupt.
func writeChaosCheckpoint(t *testing.T) (*core.Plan, Options, string) {
	t.Helper()
	pl := chaosCorpus(t)[0]
	seed := int64(99)
	rng := rand.New(rand.NewSource(seed))
	opts := ChaosOptions(rng, pl.Problem, AllFaults(), seed, 0)
	base, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chaos.ckpt")
	opts.Checkpoint = &CheckpointSpec{Path: path, At: base.Duration / 2}
	if _, err := Run(pl, opts); err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = nil
	return pl, opts, path
}

// Truncated checkpoints must fail closed with the typed corruption
// error — never a partial restore — at every truncation point.
func TestCheckpointTruncatedFailsClosed(t *testing.T) {
	t.Parallel()
	pl, opts, path := writeChaosCheckpoint(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.ckpt")
	step := len(data) / 64
	if step < 1 {
		step = 1
	}
	for n := 0; n < len(data); n += step {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreRun(pl, opts, cut); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("truncation at %d/%d bytes: got %v, want ErrCheckpointCorrupt", n, len(data), err)
		}
	}
}

// Any flipped bit must trip the trailer and fail closed.
func TestCheckpointBitFlipFailsClosed(t *testing.T) {
	t.Parallel()
	pl, opts, path := writeChaosCheckpoint(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(t.TempDir(), "flip.ckpt")
	step := len(data) / 48
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(data); i += step {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if err := os.WriteFile(flipped, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreRun(pl, opts, flipped); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("bit flip at byte %d: got %v, want ErrCheckpointCorrupt", i, err)
		}
	}
}

// A checkpoint restored against different options or a different plan
// must be rejected with the typed mismatch error.
func TestCheckpointMismatchRejected(t *testing.T) {
	t.Parallel()
	pl, opts, path := writeChaosCheckpoint(t)

	wrongSeed := opts
	wrongSeed.Seed++
	if _, err := RestoreRun(pl, wrongSeed, path); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("wrong seed: got %v, want ErrCheckpointMismatch", err)
	}

	wrongDeadline := opts
	wrongDeadline.Deadline += 7
	if _, err := RestoreRun(pl, wrongDeadline, path); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("wrong deadline: got %v, want ErrCheckpointMismatch", err)
	}

	// A different plan needs options valid for its own problem; the plan
	// fingerprint still rejects the restore.
	otherPlan := chaosCorpus(t)[1]
	otherOpts := opts
	otherOpts.Faults = nil
	if _, err := RestoreRun(otherPlan, otherOpts, path); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("wrong plan: got %v, want ErrCheckpointMismatch", err)
	}
}

// A missing checkpoint file surfaces the filesystem error untouched.
func TestCheckpointMissingFile(t *testing.T) {
	t.Parallel()
	pl := chaosCorpus(t)[0]
	_, err := RestoreRun(pl, Options{Seed: 1}, filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("got %v, want fs not-exist error", err)
	}
}

// A checkpoint tick past the run's last event writes nothing, and Run
// says so with ErrCheckpointNotReached instead of succeeding; a tick at
// the last event still writes.
func TestCheckpointPastLastEventFails(t *testing.T) {
	t.Parallel()
	pl := chaosCorpus(t)[0]
	opts := Options{Seed: 1}
	base, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "late.ckpt")
	opts.Checkpoint = &CheckpointSpec{Path: path, At: base.Duration + 1}
	if res, err := Run(pl, opts); !errors.Is(err, ErrCheckpointNotReached) || res != nil {
		t.Fatalf("Run = %v, %v; want no result and ErrCheckpointNotReached", res, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unreached checkpoint left a file: %v", err)
	}
	opts.Checkpoint.At = base.Duration
	if _, err := Run(pl, opts); err != nil {
		t.Fatalf("checkpoint at the last event: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint at the last event not written: %v", err)
	}
}

// A record whose trailer holds but whose tick, count or root has been
// edited names a prefix the run does not have: the restore re-runs the
// plan, finds a different prefix and fails with the mismatch error, not
// the corruption one.
func TestCheckpointForgedPrefixMismatch(t *testing.T) {
	t.Parallel()
	pl, opts, path := writeChaosCheckpoint(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if rec.count == 0 {
		t.Fatal("the checkpoint names an empty prefix")
	}
	forgedPath := filepath.Join(t.TempDir(), "forged.ckpt")
	for _, tc := range []struct {
		name  string
		forge func(c *checkpoint)
	}{
		{"count one short", func(c *checkpoint) { c.count-- }},
		{"count one long", func(c *checkpoint) { c.count++ }},
		{"root of another prefix", func(c *checkpoint) { c.root[0] ^= 1 }},
		{"tick before any delivery", func(c *checkpoint) { c.at = 0 }},
		{"tick past the run's end", func(c *checkpoint) { c.at = 1 << 40 }},
	} {
		c := rec
		tc.forge(&c)
		if err := os.WriteFile(forgedPath, c.encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := RestoreRun(pl, opts, forgedPath)
		if !errors.Is(err, ErrCheckpointMismatch) || errors.Is(err, ErrCheckpointCorrupt) || res != nil {
			t.Errorf("%s: RestoreRun = %v, %v; want no result and ErrCheckpointMismatch", tc.name, res, err)
		}
	}
}

// With the settlement log on, the record's root is the log's root at
// the record's count, and the count is the number of trace entries
// delivered before the tick. The log is not part of the options, so a
// run without it writes the same record.
func TestCheckpointRootIsSettlementLogRoot(t *testing.T) {
	t.Parallel()
	pl := chaosCorpus(t)[0]
	seed := int64(7)
	opts := ChaosOptions(rand.New(rand.NewSource(seed)), pl.Problem, AllFaults(), seed, 0)
	opts.VLog = true
	base, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	at := base.Trace[len(base.Trace)/2].At
	path := filepath.Join(t.TempDir(), "vlog.ckpt")
	opts.Checkpoint = &CheckpointSpec{Path: path, At: at}
	res, err := Run(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, m := range res.Trace {
		if m.At < at {
			before++
		}
	}
	if c.at != at || c.count != uint64(before) {
		t.Fatalf("record names tick %d count %d, want tick %d count %d", c.at, c.count, at, before)
	}
	want, err := res.SettlementLog.RootAt(c.count)
	if err != nil {
		t.Fatal(err)
	}
	if c.root != want {
		t.Fatalf("record root %s, settlement log root at %d is %s", c.root, c.count, want)
	}
	// Without the log, the run hashes the prefix itself: the record is
	// the same.
	opts.VLog = false
	opts.Checkpoint.Path = filepath.Join(t.TempDir(), "bare.ckpt")
	if _, err := Run(pl, opts); err != nil {
		t.Fatal(err)
	}
	bare, err := os.ReadFile(opts.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}
	if string(bare) != string(data) {
		t.Fatalf("the record differs without the settlement log:\n%x\n%x", bare, data)
	}
}
