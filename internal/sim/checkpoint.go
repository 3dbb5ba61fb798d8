package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"trustseq/internal/core"
	"trustseq/internal/model"
)

// This file implements mid-run checkpoint and restore. A checkpoint is
// a complete snapshot of the discrete-event simulation taken between
// two events: virtual clock, RNG position, event queue, trace so far,
// fault bookkeeping, every trusted node's durable log, and every
// principal's script cursor. Restoring rebuilds the same node roster
// from the plan, injects the snapshot, and re-enters the event loop —
// the remaining trace is tick-for-tick identical to the uninterrupted
// run, which the soak harness checks by diffing full-run output against
// checkpoint-then-restore output.
//
// The ledger is deliberately NOT serialized. Balances are a pure
// function of the initial holdings and the transfers performed, so the
// restore replays them: every delivered transfer in the trace moves
// mover → transit → receiver, and every still-pending transfer moves
// mover → transit (the in-flight debit). Replaying in delivery order is
// always fundable: at the point a transfer's debit replays, the replay
// balance exceeds the sender's original send-time balance by exactly
// the transfers that were still in flight, so a debit that funded live
// funds in replay.
//
// File format (all integers little-endian):
//
//	"TSQ8" | u16 version | payload | u32 CRC-32 (IEEE, over all prior bytes)
//
// The payload opens with two FNV-1a fingerprints — one over the plan
// (problem + steps), one over the schedule-affecting options — so a
// checkpoint can only be restored against the run that wrote it.
// MaxMessages is excluded from the options fingerprint on purpose: the
// livelock guard only caps length. So is the tests' queue seam: the
// queue implementation never affects the schedule (the (At, seq) order
// is total).
//
// Failure is closed: a short file, a flipped bit, or a fingerprint
// mismatch yields ErrCheckpointCorrupt / ErrCheckpointMismatch before
// any state is mutated into the result — never a partial restore.

// Typed failures. Corrupt covers structural damage (truncation, CRC or
// bounds violations); Mismatch covers a well-formed checkpoint written
// by a different plan or options.
var (
	ErrCheckpointCorrupt  = errors.New("sim: checkpoint corrupt")
	ErrCheckpointMismatch = errors.New("sim: checkpoint does not match plan/options")
)

// CheckpointSpec asks Run to snapshot the simulation to Path at the
// first event whose delivery tick is >= At, then continue.
type CheckpointSpec struct {
	Path string
	At   Time
}

const (
	ckptMagic   = "TSQ8"
	ckptVersion = 1
)

// planDigest fingerprints everything the node roster and scripts are
// derived from. The unexported Problem fields (index maps, compiled
// tables) are themselves derived, so the exported slices — all plain
// structs — cover it.
func planDigest(plan *core.Plan) uint64 {
	p := plan.Problem
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%v\x00%v\x00%v\x00%v\x00%v\x00%v",
		p.Name, p.Parties, p.Exchanges, p.DirectTrust, p.Indemnities, p.Constraints, plan.Steps)
	return h.Sum64()
}

// optionsDigest fingerprints every option that affects the event
// schedule. opts must already be normalized by setupRun.
func optionsDigest(opts Options) uint64 {
	h := fnv.New64a()
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
	return h.Sum64()
}

// cenc is the little-endian checkpoint encoder.
type cenc struct{ b []byte }

func (e *cenc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *cenc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *cenc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *cenc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *cenc) i64(v int64)  { e.u64(uint64(v)) }
func (e *cenc) str(s string) { e.u32(uint32(len(s))); e.b = append(e.b, s...) }

func (e *cenc) action(a model.Action) {
	e.u8(uint8(a.Kind))
	e.str(string(a.From))
	e.str(string(a.To))
	e.str(string(a.Item))
	e.i64(int64(a.Amount))
	e.bool(a.Inverse)
}

func (e *cenc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *cenc) message(m Message) {
	e.i64(int64(m.At))
	e.str(string(m.From))
	e.str(string(m.To))
	e.u8(uint8(m.Kind))
	e.action(m.Action)
	e.str(m.Tag)
	e.i64(int64(m.seq))
}

// cdec is the bounds-checked decoder: the first out-of-bounds or
// malformed read trips a sticky failure flag and every later read
// returns zero values, so callers check ok once at the end.
type cdec struct {
	b   []byte
	off int
	bad bool
}

func (d *cdec) fail() { d.bad = true }

func (d *cdec) take(n int) []byte {
	if d.bad || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *cdec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *cdec) u16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (d *cdec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *cdec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *cdec) i64() int64 { return int64(d.u64()) }

func (d *cdec) str() string { return string(d.take(int(d.u32()))) }

func (d *cdec) boolean() bool { return d.u8() != 0 }

// count reads an element count and rejects counts that cannot fit in
// the remaining bytes at `min` bytes per element — a CRC-valid but
// hand-built file must not trigger huge allocations.
func (d *cdec) count(min int) int {
	n := int(d.u32())
	if d.bad || int64(n)*int64(min) > int64(len(d.b)-d.off) {
		d.fail()
		return 0
	}
	return n
}

// Minimum encoded sizes, for count guards.
const (
	minStr     = 4
	minAction  = 1 + 3*minStr + 8 + 1
	minMessage = 8 + 2*minStr + 1 + minAction + minStr + 8
	minWal     = 1 + minAction + 8 + 8
)

func (d *cdec) action() model.Action {
	var a model.Action
	a.Kind = model.ActionKind(d.u8())
	a.From = model.PartyID(d.str())
	a.To = model.PartyID(d.str())
	a.Item = model.ItemID(d.str())
	a.Amount = model.Money(d.i64())
	a.Inverse = d.boolean()
	return a
}

func (d *cdec) message() Message {
	var m Message
	m.At = Time(d.i64())
	m.From = model.PartyID(d.str())
	m.To = model.PartyID(d.str())
	m.Kind = MsgKind(d.u8())
	m.Action = d.action()
	m.Tag = d.str()
	m.seq = int(d.i64())
	return m
}

// armCheckpoint installs the snapshot trigger on the network's event
// hook: the first popped event at or after the spec's tick is captured
// as the head of the pending list and the whole simulation state is
// written out before the event is dispatched.
func (rs *runtime) armCheckpoint() {
	spec := rs.opts.Checkpoint
	written := false
	rs.net.onEvent = func(m Message) error {
		if written || m.At < spec.At {
			return nil
		}
		written = true
		pending := append([]Message{m}, rs.net.q.pending()...)
		if err := writeFileAtomic(spec.Path, rs.encodeCheckpoint(pending)); err != nil {
			return fmt.Errorf("sim: writing checkpoint: %w", err)
		}
		return nil
	}
}

// encodeCheckpoint serializes the full simulation state. pending holds
// every undelivered event, headed by the event the trigger just popped
// (it is re-popped first on restore; the stored processed count is
// pre-decremented to match).
func (rs *runtime) encodeCheckpoint(pending []Message) []byte {
	n := rs.net
	e := &cenc{b: make([]byte, 0, 1<<12)}
	e.b = append(e.b, ckptMagic...)
	e.u16(ckptVersion)
	e.u64(planDigest(rs.plan))
	e.u64(optionsDigest(rs.opts))

	e.i64(int64(n.now))
	e.i64(int64(n.seq))
	e.i64(int64(n.processed - 1)) // the head of pending re-counts on restore
	e.i64(int64(n.dropped))
	e.u64(n.rsrc.n)
	fs := &n.fstats
	for _, v := range []int{fs.DupNotifies, fs.Reorders, fs.Spikes, fs.PartitionDrops,
		fs.CrashDrops, fs.Deferred, fs.RetriesSent, fs.Crashes, fs.Restarts} {
		e.i64(int64(v))
	}

	// Crash bookkeeping: currently-down parties and remaining crash
	// windows, keyed by party ID.
	downs := 0
	for p := range n.nodes {
		if n.down[p] {
			downs++
		}
	}
	e.u32(uint32(downs))
	for p := range n.nodes {
		if n.down[p] {
			e.str(string(n.ids[p]))
			e.i64(int64(n.restartAt[p]))
		}
	}
	ends := 0
	for p := range n.nodes {
		if len(n.crashEnds[p]) > 0 {
			ends++
		}
	}
	e.u32(uint32(ends))
	for p := range n.nodes {
		if len(n.crashEnds[p]) > 0 {
			e.str(string(n.ids[p]))
			e.u32(uint32(len(n.crashEnds[p])))
			for _, t := range n.crashEnds[p] {
				e.i64(int64(t))
			}
		}
	}

	e.u32(uint32(len(n.trace)))
	for _, m := range n.trace {
		e.message(m)
	}
	e.u32(uint32(len(pending)))
	for _, m := range pending {
		e.message(m)
	}

	e.u32(uint32(len(rs.trusted)))
	for _, tn := range rs.trusted {
		e.str(string(tn.Self))
		e.u32(uint32(len(tn.wal)))
		for _, w := range tn.wal {
			e.u8(uint8(w.op))
			e.action(w.action)
			e.i64(int64(w.idx))
			e.i64(int64(w.at))
		}
	}

	e.u32(uint32(len(rs.principals)))
	for _, pn := range rs.principals {
		e.str(string(pn.Self))
		e.i64(int64(pn.next))
		e.i64(int64(pn.fired))
		e.u32(uint32(len(pn.seen.keys)))
		for _, a := range pn.seen.keys {
			e.action(a)
		}
		tags := make([]string, 0, len(pn.seenTags))
		for t := range pn.seenTags {
			tags = append(tags, t)
		}
		sort.Strings(tags)
		e.u32(uint32(len(tags)))
		for _, t := range tags {
			e.str(t)
		}
		e.u32(uint32(len(pn.sent.keys)))
		for _, a := range pn.sent.keys {
			e.action(a)
		}
		e.u32(uint32(len(pn.faults)))
		for _, err := range pn.faults {
			e.str(err.Error())
		}
		e.u32(uint32(len(pn.recalls)))
		for _, rc := range pn.recalls {
			e.i64(int64(rc.ei))
			e.u8(uint8(rc.mode))
			e.bool(rc.done)
			acts := make([]model.Action, 0, len(rc.sent))
			for a := range rc.sent {
				acts = append(acts, a)
			}
			sort.Slice(acts, func(i, j int) bool { return acts[i].String() < acts[j].String() })
			e.u32(uint32(len(acts)))
			for _, a := range acts {
				e.action(a)
			}
		}
	}

	e.u32(crc32.ChecksumIEEE(e.b))
	return e.b
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

// RestoreRun resumes a checkpointed simulation: it rebuilds the node
// roster from the plan and options (which must match the writing run —
// the fingerprints enforce it), injects the snapshot, and processes the
// remaining events to quiescence. The returned Result is identical to
// the uninterrupted run's, trace byte for trace byte.
//
// Failure is closed: corrupt or mismatched checkpoints return
// ErrCheckpointCorrupt / ErrCheckpointMismatch (wrapped) and no partial
// state. opts.Checkpoint is ignored on restore.
func RestoreRun(plan *core.Plan, opts Options, path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	opts.Checkpoint = nil
	rs, err := setupRun(plan, opts)
	if err != nil {
		return nil, err
	}
	if err := rs.inject(data); err != nil {
		return nil, err
	}
	if err := rs.net.loop(); err != nil {
		return nil, err
	}
	return rs.assemble()
}

// inject validates a checkpoint blob and loads it into the freshly
// assembled runtime.
func (rs *runtime) inject(data []byte) error {
	if len(data) < len(ckptMagic)+2+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return fmt.Errorf("%w: bad magic", ErrCheckpointCorrupt)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return fmt.Errorf("%w: CRC mismatch", ErrCheckpointCorrupt)
	}
	d := &cdec{b: body, off: len(ckptMagic)}
	if v := d.u16(); v != ckptVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, v)
	}
	if d.u64() != planDigest(rs.plan) {
		return fmt.Errorf("%w: plan fingerprint differs", ErrCheckpointMismatch)
	}
	if d.u64() != optionsDigest(rs.opts) {
		return fmt.Errorf("%w: options fingerprint differs", ErrCheckpointMismatch)
	}

	n := rs.net
	now := Time(d.i64())
	seq := int(d.i64())
	processed := int(d.i64())
	dropped := int(d.i64())
	draws := d.u64()
	var fs FaultStats
	for _, p := range []*int{&fs.DupNotifies, &fs.Reorders, &fs.Spikes, &fs.PartitionDrops,
		&fs.CrashDrops, &fs.Deferred, &fs.RetriesSent, &fs.Crashes, &fs.Restarts} {
		*p = int(d.i64())
	}

	type downRec struct {
		id        model.PartyID
		restartAt Time
	}
	downRecs := make([]downRec, 0, d.count(minStr+8))
	for i := cap(downRecs); i > 0; i-- {
		downRecs = append(downRecs, downRec{model.PartyID(d.str()), Time(d.i64())})
	}
	type endsRec struct {
		id   model.PartyID
		ends []Time
	}
	endsRecs := make([]endsRec, 0, d.count(minStr+4))
	for i := cap(endsRecs); i > 0; i-- {
		id := model.PartyID(d.str())
		ends := make([]Time, 0, d.count(8))
		for j := cap(ends); j > 0; j-- {
			ends = append(ends, Time(d.i64()))
		}
		endsRecs = append(endsRecs, endsRec{id, ends})
	}

	trace := make([]Message, 0, d.count(minMessage))
	for i := cap(trace); i > 0; i-- {
		trace = append(trace, d.message())
	}
	pending := make([]Message, 0, d.count(minMessage))
	for i := cap(pending); i > 0; i-- {
		pending = append(pending, d.message())
	}

	type trustedRec struct {
		id  model.PartyID
		wal []walEntry
	}
	trustedRecs := make([]trustedRec, 0, d.count(minStr+4))
	for i := cap(trustedRecs); i > 0; i-- {
		id := model.PartyID(d.str())
		wal := make([]walEntry, 0, d.count(minWal))
		for j := cap(wal); j > 0; j-- {
			var w walEntry
			w.op = walOp(d.u8())
			w.action = d.action()
			w.idx = int(d.i64())
			w.at = Time(d.i64())
			wal = append(wal, w)
		}
		trustedRecs = append(trustedRecs, trustedRec{id, wal})
	}

	type principalRec struct {
		id          model.PartyID
		next, fired int
		seen, sent  []model.Action
		tags        []string
		faults      []string
		recalls     []*recallState
	}
	principalRecs := make([]principalRec, 0, d.count(minStr+16))
	for i := cap(principalRecs); i > 0; i-- {
		var r principalRec
		r.id = model.PartyID(d.str())
		r.next = int(d.i64())
		r.fired = int(d.i64())
		r.seen = make([]model.Action, 0, d.count(minAction))
		for j := cap(r.seen); j > 0; j-- {
			r.seen = append(r.seen, d.action())
		}
		r.tags = make([]string, 0, d.count(minStr))
		for j := cap(r.tags); j > 0; j-- {
			r.tags = append(r.tags, d.str())
		}
		r.sent = make([]model.Action, 0, d.count(minAction))
		for j := cap(r.sent); j > 0; j-- {
			r.sent = append(r.sent, d.action())
		}
		r.faults = make([]string, 0, d.count(minStr))
		for j := cap(r.faults); j > 0; j-- {
			r.faults = append(r.faults, d.str())
		}
		r.recalls = make([]*recallState, 0, d.count(8+1+1+4))
		for j := cap(r.recalls); j > 0; j-- {
			rc := &recallState{sent: make(map[model.Action]bool)}
			rc.ei = int(d.i64())
			rc.mode = recallMode(d.u8())
			rc.done = d.boolean()
			for k := d.count(minAction); k > 0; k-- {
				rc.sent[d.action()] = true
			}
			if rc.ei < 0 || rc.ei >= len(rs.p.Exchanges) || rc.mode > recallPaying {
				d.fail()
			}
			r.recalls = append(r.recalls, rc)
		}
		principalRecs = append(principalRecs, r)
	}
	if d.bad || d.off != len(d.b) {
		return fmt.Errorf("%w: truncated or trailing data", ErrCheckpointCorrupt)
	}

	// Everything decoded cleanly; load it into the runtime.
	n.now = now
	n.seq = seq
	n.processed = processed
	n.dropped = dropped
	n.fstats = fs
	for i := uint64(0); i < draws; i++ {
		n.rng.Int63() // fast-forward to the recorded RNG position
	}
	for _, r := range downRecs {
		p := n.lookup(r.id)
		if p < 0 {
			return fmt.Errorf("%w: unknown down party %s", ErrCheckpointMismatch, r.id)
		}
		n.down[p] = true
		n.restartAt[p] = r.restartAt
	}
	for _, r := range endsRecs {
		p := n.lookup(r.id)
		if p < 0 {
			return fmt.Errorf("%w: unknown crash party %s", ErrCheckpointMismatch, r.id)
		}
		n.crashEnds[p] = r.ends
	}
	n.trace = trace
	for i := range pending {
		// The encoding carries IDs, not slots.
		if err := n.resolve(&pending[i]); err != nil {
			return fmt.Errorf("%w: pending event: %v", ErrCheckpointCorrupt, err)
		}
		n.q.push(pending[i]) // seq already assigned; bypass schedule()
	}

	if err := rs.replayLedger(trace, pending); err != nil {
		return err
	}

	if len(trustedRecs) != len(rs.trusted) {
		return fmt.Errorf("%w: trusted roster differs", ErrCheckpointMismatch)
	}
	byID := make(map[model.PartyID]*TrustedNode, len(rs.trusted))
	for _, tn := range rs.trusted {
		byID[tn.Self] = tn
	}
	for _, r := range trustedRecs {
		tn, ok := byID[r.id]
		if !ok {
			return fmt.Errorf("%w: unknown trusted node %s", ErrCheckpointMismatch, r.id)
		}
		tn.wal = r.wal
		for _, w := range r.wal {
			tn.apply(w)
		}
	}

	if len(principalRecs) != len(rs.principals) {
		return fmt.Errorf("%w: principal roster differs", ErrCheckpointMismatch)
	}
	pByID := make(map[model.PartyID]*PrincipalNode, len(rs.principals))
	for _, pn := range rs.principals {
		pByID[pn.Self] = pn
	}
	for _, r := range principalRecs {
		pn, ok := pByID[r.id]
		if !ok {
			return fmt.Errorf("%w: unknown principal %s", ErrCheckpointMismatch, r.id)
		}
		if r.next < 0 || r.next > len(pn.script) || r.fired < 0 {
			return fmt.Errorf("%w: principal %s cursor out of range", ErrCheckpointMismatch, r.id)
		}
		pn.next = r.next
		pn.fired = r.fired
		for _, a := range r.seen {
			pn.seen.add(a)
		}
		for _, t := range r.tags {
			pn.markTag(t)
		}
		for _, a := range r.sent {
			pn.sent.add(a)
		}
		for _, s := range r.faults {
			pn.faults = append(pn.faults, errors.New(s))
		}
		pn.recalls = r.recalls
	}
	return nil
}

// replayLedger resolves the trace's messages and reconstructs the
// account book with the live run's own debit and credit: each delivered
// transfer in the trace moves mover → transit → receiver; each
// still-pending transfer, already resolved, holds its in-flight debit,
// mover → transit.
func (rs *runtime) replayLedger(trace, pending []Message) error {
	n := rs.net
	for i := range trace {
		m := &trace[i]
		err := n.resolve(m)
		if err == nil && m.Kind == MsgTransfer {
			err = n.debit(m)
			if err == nil {
				err = n.credit(m)
			}
		}
		if err != nil {
			return fmt.Errorf("%w: replaying trace: %v", ErrCheckpointCorrupt, err)
		}
	}
	for _, m := range pending {
		if m.Kind != MsgTransfer {
			continue
		}
		if err := n.debit(&m); err != nil {
			return fmt.Errorf("%w: replaying in-flight debits: %v", ErrCheckpointCorrupt, err)
		}
	}
	return nil
}
