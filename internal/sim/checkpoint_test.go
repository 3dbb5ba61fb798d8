package sim

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
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

// Any flipped bit must trip the CRC and fail closed.
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

// ckptContents counts the node state a checkpoint holds: the entries of
// the principals' seen, sent and recall sent sets, and the trusted
// nodes' escrow-log records by op.
type ckptContents struct {
	seen, sent, recallSent int
	wal                    map[walOp]int
}

func (c ckptContents) String() string {
	return fmt.Sprintf("seen=%d sent=%d recall-sent=%d received=%d refunded=%d collateral=%d",
		c.seen, c.sent, c.recallSent, c.wal[walReceived], c.wal[walRefunded], c.wal[walCollateral])
}

// add sums o into c.
func (c *ckptContents) add(o ckptContents) {
	c.seen += o.seen
	c.sent += o.sent
	c.recallSent += o.recallSent
	for op, k := range o.wal {
		c.wal[op] += k
	}
}

// checkpointContents counts the node state of rs, a runtime a
// checkpoint was injected into.
func checkpointContents(rs *runtime) ckptContents {
	c := ckptContents{wal: make(map[walOp]int)}
	for _, pn := range rs.principals {
		c.seen += len(pn.seen.keys)
		c.sent += len(pn.sent.keys)
		for _, rc := range pn.recalls {
			c.recallSent += len(rc.sent)
		}
	}
	for _, tn := range rs.trusted {
		for _, w := range tn.wal {
			c.wal[w.op]++
		}
	}
	return c
}

// walRecord is one escrow-log record as the checkpoint file holds it.
type walRecord struct {
	op     walOp
	action model.Action
	idx    int64
	at     Time
}

// forged is the node state forgeCheckpoint writes: one escrow log for
// the first trusted node, and the seen and sent sets and one recall of
// the first principal.
type forged struct {
	wal        []walRecord
	seen, sent []model.Action
	recallEi   int64
	recallSent []model.Action
}

// forgeCheckpoint writes a well-formed checkpoint of rs's plan and
// options, taken before any event — nothing delivered, pending, down
// or drawn — holding the node state f names, with a valid CRC.
func forgeCheckpoint(rs *runtime, f forged) []byte {
	e := &cenc{}
	e.b = append(e.b, ckptMagic...)
	e.u16(ckptVersion)
	e.u64(planDigest(rs.plan))
	e.u64(optionsDigest(rs.opts))
	for i := 0; i < 4; i++ { // now, seq, processed, dropped
		e.i64(0)
	}
	e.u64(0)                 // RNG draws
	for i := 0; i < 9; i++ { // fault stats
		e.i64(0)
	}
	for i := 0; i < 4; i++ { // down parties, crash windows, trace, pending
		e.u32(0)
	}
	e.u32(uint32(len(rs.trusted)))
	for i, tn := range rs.trusted {
		e.str(string(tn.Self))
		var wal []walRecord
		if i == 0 {
			wal = f.wal
		}
		e.u32(uint32(len(wal)))
		for _, w := range wal {
			e.u8(uint8(w.op))
			e.action(w.action)
			e.i64(w.idx)
			e.i64(int64(w.at))
		}
	}
	actions := func(acts []model.Action) {
		e.u32(uint32(len(acts)))
		for _, a := range acts {
			e.action(a)
		}
	}
	e.u32(uint32(len(rs.principals)))
	for i, pn := range rs.principals {
		e.str(string(pn.Self))
		e.i64(0) // next
		e.i64(0) // fired
		if i != 0 {
			for j := 0; j < 5; j++ { // seen, tags, sent, faults, recalls
				e.u32(0)
			}
			continue
		}
		actions(f.seen)
		e.u32(0) // tags
		actions(f.sent)
		e.u32(0) // faults
		if f.recallSent == nil {
			e.u32(0)
			continue
		}
		e.u32(1)
		e.i64(f.recallEi)
		e.u8(uint8(recallPaying))
		e.bool(true)
		actions(f.recallSent)
	}
	e.u32(crc32.ChecksumIEEE(e.b))
	return e.b
}

// A checkpoint whose CRC holds but whose node state names an action the
// problem does not define, or an index outside what the node mediates,
// fails closed instead of restoring into a state no run can reach.
func TestRestoreRejectsForeignActions(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example1())
	opts := Options{Seed: 1}
	deposit := model.Pay(paperex.Consumer, paperex.Trusted1, paperex.RetailPrice)
	receipt := model.Give(paperex.Trusted1, paperex.Consumer, paperex.Doc)
	valid := func() forged {
		return forged{
			wal: []walRecord{
				{op: walReceived, action: deposit},
				{op: walDelivered, idx: 0},
				{op: walDeadline, at: 1000},
			},
			seen:       []model.Action{receipt},
			sent:       []model.Action{deposit},
			recallEi:   0,
			recallSent: []model.Action{deposit},
		}
	}
	inject := func(f forged) error {
		rs, err := setupRun(pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rs.trusted[0].Self != paperex.Trusted1 || rs.principals[0].Self != paperex.Consumer {
			t.Fatalf("roster starts with %s and %s", rs.trusted[0].Self, rs.principals[0].Self)
		}
		return rs.inject(forgeCheckpoint(rs, f))
	}
	if err := inject(valid()); err != nil {
		t.Fatalf("a forged checkpoint of reachable state: %v", err)
	}
	for _, tc := range []struct {
		name  string
		forge func(f *forged)
	}{
		{"wal names a pay from no party", func(f *forged) {
			f.wal[0].action = model.Pay("nobody", paperex.Trusted1, 12345)
		}},
		{"wal names an undefined amount", func(f *forged) {
			f.wal[0].action = model.Pay(paperex.Consumer, paperex.Trusted1, 99)
		}},
		{"wal names a deposit at another node", func(f *forged) {
			f.wal[0].action = model.Give(paperex.Producer, paperex.Trusted2, paperex.Doc)
		}},
		{"wal op out of range", func(f *forged) { f.wal[1].op = 99 }},
		{"wal exchange out of range", func(f *forged) { f.wal[1].idx = 1000 }},
		{"wal exchange mediated elsewhere", func(f *forged) { f.wal[1].idx = 3 }},
		{"wal offer out of range", func(f *forged) { f.wal[1].op = walCollateral }},
		{"seen names a give from no party", func(f *forged) {
			f.seen[0] = model.Give("ghost", paperex.Consumer, "nothing")
		}},
		{"seen names an action addressed elsewhere", func(f *forged) { f.seen[0] = deposit }},
		{"sent names an undefined transfer", func(f *forged) {
			f.sent[0] = model.Pay(paperex.Consumer, paperex.Trusted1, 1)
		}},
		{"sent names another party's transfer", func(f *forged) { f.sent[0] = receipt }},
		{"recall sent names a foreign action", func(f *forged) {
			f.recallSent[0] = model.Pay("ghost", paperex.Trusted1, 5)
		}},
		{"recall on another principal's exchange", func(f *forged) { f.recallEi = 1 }},
	} {
		f := valid()
		tc.forge(&f)
		err := inject(f)
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: inject = %v, want ErrCheckpointCorrupt or ErrCheckpointMismatch", tc.name, err)
		}
	}
}
