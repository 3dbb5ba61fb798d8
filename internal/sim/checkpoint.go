package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"trustseq/internal/core"
	"trustseq/internal/model"
	"trustseq/internal/vlog"
)

// This file implements mid-run checkpoint and restore by replay. The
// simulation is deterministic in (plan, options), so a checkpoint holds
// no simulation state: it names a prefix of the run — the tick, the
// number of trace entries delivered before the first event at or after
// it, and the settlement-log root over those entries — and binds it to
// the plan and options that produced it. Restoring re-runs the plan and
// accepts the result only once the re-run's prefix at the tick has the
// same length and root.
//
// File format (integers little-endian), a fixed ckptSize bytes:
//
//	"TSQ9" | u16 version | plan SHA-256 | options SHA-256 |
//	i64 tick | u64 count | root | SHA-256 trailer over all prior bytes
//
// MaxMessages is excluded from the options digest on purpose: the
// livelock guard only caps length. So is the tests' queue seam: the
// queue implementation never affects the schedule (the (At, seq) order
// is total).
//
// Failure is closed: a record of the wrong length, magic or version, or
// whose trailer does not match, is ErrCheckpointCorrupt; a sound record
// of another plan or options, or whose prefix the re-run does not
// reproduce, is ErrCheckpointMismatch. Either way RestoreRun returns no
// result.

// Typed failures. Corrupt covers structural damage (length, magic,
// version, trailer); Mismatch covers a well-formed checkpoint written by
// a different plan or options, or naming a prefix the run does not
// have; NotReached is Run's answer when no event reached the tick a
// CheckpointSpec names, so nothing was written.
var (
	ErrCheckpointCorrupt    = errors.New("sim: checkpoint corrupt")
	ErrCheckpointMismatch   = errors.New("sim: checkpoint does not match plan/options")
	ErrCheckpointNotReached = errors.New("sim: no event reached the checkpoint tick")
)

// CheckpointSpec asks Run to record, at Path, the prefix of the run
// delivered before the first event whose delivery tick is >= At. A run
// that ends before any event reaches At writes no file and fails with
// ErrCheckpointNotReached.
type CheckpointSpec struct {
	Path string
	At   Time
}

const (
	ckptMagic   = "TSQ9"
	ckptVersion = 1
	ckptBody    = len(ckptMagic) + 2 + 2*sha256.Size + 8 + 8 + vlog.HashSize
	ckptSize    = ckptBody + sha256.Size
)

// checkpoint is the content of a checkpoint record.
type checkpoint struct {
	plan, opts [sha256.Size]byte
	prefix
}

// prefix names the start of a run: the entries of its trace delivered
// before tick at, how many, and their settlement-log root.
type prefix struct {
	at    Time
	count uint64
	root  vlog.Hash
}

// startPrefix starts computing the prefix of a run's trace before tick
// at, once the run has delivered an event at or after at. Events pop in
// nondecreasing At, so the prefix is the trace entries with At below at,
// and later deliveries only append to the trace. It returns the
// function that completes the prefix once the run is assembled: with
// the settlement log on, the root is the log's root at the count;
// otherwise the entries are hashed on another goroutine meanwhile.
func startPrefix(trace []Message, at Time, logged bool) func(*Result) prefix {
	n := sort.Search(len(trace), func(i int) bool { return trace[i].At >= at })
	p := prefix{at: at, count: uint64(n)}
	if logged {
		return func(res *Result) prefix {
			p.root, _ = res.SettlementLog.RootAt(p.count) // the log holds the whole trace
			return p
		}
	}
	root := make(chan vlog.Hash, 1)
	go func() { root <- SettlementLog(trace[:n]).Root() }()
	return func(*Result) prefix {
		p.root = <-root
		return p
	}
}

// planDigest is the SHA-256 of everything the node roster and scripts
// are derived from: the problem's content address (model.Compiled's
// Digest), then each step's kind, exchange, offer, endpoints and action
// slots. The steps reach the hash through a small buffer: a
// population's plan encodes to megabytes.
func planDigest(plan *core.Plan) [sha256.Size]byte {
	h := sha256.New()
	d := plan.Problem.Digest()
	h.Write(d[:])
	b := make([]byte, 0, 4<<10)
	b = binary.AppendUvarint(b, uint64(len(plan.Steps)))
	for _, st := range plan.Steps {
		b = binary.AppendUvarint(b, uint64(st.Kind))
		b = binary.AppendVarint(b, int64(st.Exchange))
		b = binary.AppendVarint(b, int64(st.Offer))
		b = appendString(b, string(st.From))
		b = appendString(b, string(st.To))
		b = binary.AppendUvarint(b, uint64(len(st.Slots)))
		for _, s := range st.Slots {
			b = binary.AppendUvarint(b, uint64(s))
		}
		if len(b) >= 2<<10 {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(b)
	return [sha256.Size]byte(h.Sum(nil))
}

// optionsDigest is the SHA-256 of every option that affects the event
// schedule. opts must already carry the defaults setupRun applies.
func optionsDigest(opts Options) [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%d|%d|%v|%d|%d",
		opts.Seed, opts.BaseLatency, opts.Jitter, opts.Deadline,
		opts.NotifyDropRate, opts.NotifyRetries, opts.RetryBase)
	ids := make([]string, 0, len(opts.Defectors))
	for id := range opts.Defectors {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "|%s=%d", id, opts.Defectors[model.PartyID(id)])
	}
	if opts.Faults != nil {
		fmt.Fprintf(h, "|%v", *opts.Faults)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// encode returns the record's ckptSize bytes.
func (c checkpoint) encode() []byte {
	b := make([]byte, 0, ckptSize)
	b = append(b, ckptMagic...)
	b = binary.LittleEndian.AppendUint16(b, ckptVersion)
	b = append(b, c.plan[:]...)
	b = append(b, c.opts[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.at))
	b = binary.LittleEndian.AppendUint64(b, c.count)
	b = append(b, c.root[:]...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// decodeCheckpoint checks a record's length, magic, trailer and version
// and returns its content.
func decodeCheckpoint(data []byte) (checkpoint, error) {
	var c checkpoint
	if len(data) != ckptSize || string(data[:len(ckptMagic)]) != ckptMagic {
		return c, fmt.Errorf("%w: not a %d-byte %s record", ErrCheckpointCorrupt, ckptSize, ckptMagic)
	}
	if sha256.Sum256(data[:ckptBody]) != [sha256.Size]byte(data[ckptBody:]) {
		return c, fmt.Errorf("%w: trailer mismatch", ErrCheckpointCorrupt)
	}
	b := data[len(ckptMagic):]
	if v := binary.LittleEndian.Uint16(b); v != ckptVersion {
		return c, fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, v)
	}
	b = b[2:]
	c.plan, b = [sha256.Size]byte(b), b[sha256.Size:]
	c.opts, b = [sha256.Size]byte(b), b[sha256.Size:]
	c.at = Time(binary.LittleEndian.Uint64(b))
	c.count = binary.LittleEndian.Uint64(b[8:])
	c.root = vlog.Hash(b[16:])
	return c, nil
}

// writeFileAtomic writes data through a temp file and a rename, so a
// crash mid-write never leaves a half-written checkpoint at path.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// RestoreRun resumes a checkpointed simulation by replay: it runs the
// plan to quiescence and returns the result only if the run's plan and
// options digests are the record's (the plan and options must match the
// writing run) and its prefix at the record's tick has the record's
// entry count and settlement root. The returned Result is identical to
// the uninterrupted run's, trace byte for trace byte.
//
// Failure is closed: corrupt or mismatched checkpoints return
// ErrCheckpointCorrupt / ErrCheckpointMismatch (wrapped) and no result.
// opts.Checkpoint is ignored on restore.
func RestoreRun(plan *core.Plan, opts Options, path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	want, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	opts.Checkpoint = nil
	res, got, err := execute(plan, opts, &want.at)
	switch {
	case errors.Is(err, ErrCheckpointNotReached):
		return nil, fmt.Errorf("%w: %w", ErrCheckpointMismatch, err)
	case err != nil:
		return nil, err
	case got.plan != want.plan:
		return nil, fmt.Errorf("%w: plan digest differs", ErrCheckpointMismatch)
	case got.opts != want.opts:
		return nil, fmt.Errorf("%w: options digest differs", ErrCheckpointMismatch)
	case got.prefix != want.prefix:
		return nil, fmt.Errorf("%w: at tick %d the run has %d entries with root %s, the checkpoint %d with root %s",
			ErrCheckpointMismatch, want.at, got.count, got.root, want.count, want.root)
	}
	return res, nil
}
