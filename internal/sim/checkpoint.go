package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
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
// The file names actions, not slots: the nodes' escrow logs, seen and
// sent sets and recall settlements are written through
// ActionTable.Action and resolved on restore with ActionTable.Slot.
//
// Failure is closed: a short file, a flipped bit, a fingerprint
// mismatch, or an action or index the plan's nodes cannot hold yields
// ErrCheckpointCorrupt / ErrCheckpointMismatch and no result — never a
// partial restore.

// Typed failures. Corrupt covers structural damage (truncation, CRC or
// bounds violations); Mismatch covers a well-formed checkpoint written
// by a different plan or options; NotReached is Run's answer when no
// event reached the tick a CheckpointSpec names, so nothing was written.
var (
	ErrCheckpointCorrupt    = errors.New("sim: checkpoint corrupt")
	ErrCheckpointMismatch   = errors.New("sim: checkpoint does not match plan/options")
	ErrCheckpointNotReached = errors.New("sim: no event reached the checkpoint tick")
)

// CheckpointSpec asks Run to snapshot the simulation to Path at the
// first event whose delivery tick is >= At, then continue. A run that
// ends before any event reaches At writes no file and fails with
// ErrCheckpointNotReached.
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
	rs.net.onEvent = func(m Message) error {
		if rs.checkpointed || m.At < spec.At {
			return nil
		}
		rs.checkpointed = true
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

	// Nodes hold action-table slots; the file names their actions.
	tab := n.table
	e.u32(uint32(len(rs.trusted)))
	for _, tn := range rs.trusted {
		e.str(string(tn.Self))
		e.u32(uint32(len(tn.wal)))
		for _, w := range tn.wal {
			e.u8(uint8(w.op))
			var a model.Action
			if w.op == walReceived || w.op == walRefunded {
				a = tab.Action(int(w.slot))
			}
			e.action(a)
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
		for _, s := range pn.seen.keys {
			e.action(tab.Action(int(s)))
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
		for _, s := range pn.sent.keys {
			e.action(tab.Action(int(s)))
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
			for _, s := range rc.sent {
				acts = append(acts, tab.Action(int(s)))
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

	nodesErr := rs.decodeNodes(d)
	switch {
	case d.bad:
		return fmt.Errorf("%w: truncated data", ErrCheckpointCorrupt)
	case nodesErr != nil:
		return nodesErr
	case d.off != len(d.b):
		return fmt.Errorf("%w: trailing data", ErrCheckpointCorrupt)
	}

	// Everything decoded cleanly; load the network's state.
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

	return rs.replayLedger(trace, pending)
}

// decodeNodes reads the trusted nodes' escrow logs and the principals'
// cursors and sets into the node roster, which the checkpoint lists in
// the same order, and resolves every action they name to its slot. A
// truncated file leaves the decoder failed, which the caller checks
// before the error returned here.
func (rs *runtime) decodeNodes(d *cdec) error {
	t := rs.net.table
	if d.count(minStr+4) != len(rs.trusted) {
		return fmt.Errorf("%w: trusted roster differs", ErrCheckpointMismatch)
	}
	for _, tn := range rs.trusted {
		if id := model.PartyID(d.str()); id != tn.Self {
			return fmt.Errorf("%w: trusted node %s in the place of %s", ErrCheckpointMismatch, id, tn.Self)
		}
		tn.wal = make([]walEntry, 0, d.count(minWal))
		for j := cap(tn.wal); j > 0; j-- {
			w, ok := tn.restoreWal(walOp(d.u8()), d.action(), d.i64(), Time(d.i64()))
			if !ok {
				return fmt.Errorf("%w: trusted node %s: wal record %d", ErrCheckpointCorrupt, tn.Self, len(tn.wal))
			}
			tn.wal = append(tn.wal, w)
			tn.apply(w)
		}
	}
	if d.count(minStr+16) != len(rs.principals) {
		return fmt.Errorf("%w: principal roster differs", ErrCheckpointMismatch)
	}
	for _, pn := range rs.principals {
		if id := model.PartyID(d.str()); id != pn.Self {
			return fmt.Errorf("%w: principal %s in the place of %s", ErrCheckpointMismatch, id, pn.Self)
		}
		pn.next, pn.fired = int(d.i64()), int(d.i64())
		if pn.next < 0 || pn.next > len(pn.script) || pn.fired < 0 {
			return fmt.Errorf("%w: principal %s cursor out of range", ErrCheckpointMismatch, pn.Self)
		}
		self, _ := t.PartySlot(pn.Self)
		seen, err := readSlots(d, t, int32(self), false)
		if err != nil {
			return fmt.Errorf("%w: principal %s seen: %v", ErrCheckpointCorrupt, pn.Self, err)
		}
		for _, s := range seen {
			pn.seen.add(s)
		}
		for k := d.count(minStr); k > 0; k-- {
			pn.markTag(d.str())
		}
		sent, err := readSlots(d, t, int32(self), true)
		if err != nil {
			return fmt.Errorf("%w: principal %s sent: %v", ErrCheckpointCorrupt, pn.Self, err)
		}
		for _, s := range sent {
			pn.sent.add(s)
		}
		for k := d.count(minStr); k > 0; k-- {
			pn.faults = append(pn.faults, errors.New(d.str()))
		}
		for k := d.count(8 + 1 + 1 + 4); k > 0; k-- {
			rc := &recallState{ei: int(d.i64()), mode: recallMode(d.u8()), done: d.boolean()}
			if rc.sent, err = readSlots(d, t, int32(self), true); err != nil {
				return fmt.Errorf("%w: principal %s recall: %v", ErrCheckpointCorrupt, pn.Self, err)
			}
			if rc.ei < 0 || rc.ei >= len(rs.p.Exchanges) || rc.mode > recallPaying ||
				rs.p.Exchanges[rc.ei].Principal != pn.Self {
				return fmt.Errorf("%w: principal %s recall on exchange %d", ErrCheckpointCorrupt, pn.Self, rc.ei)
			}
			pn.recalls = append(pn.recalls, rc)
		}
	}
	return nil
}

// restoreWal checks a decoded escrow-log record against the node that
// wrote it and returns it as a log entry. A received or refunded
// transfer must be one the problem moves into the node, an exchange or
// offer index one the node mediates or holds; every other record
// carries no action, and only the exchange and offer records an index.
func (n *TrustedNode) restoreWal(op walOp, a model.Action, idx int64, at Time) (walEntry, bool) {
	w := walEntry{op: op, idx: int32(idx), at: at}
	indexes := func(set []int32) bool { return int64(w.idx) == idx && slices.Contains(set, w.idx) }
	none := a == (model.Action{})
	switch op {
	case walReceived, walRefunded:
		s, ok := n.t.Slot(a)
		if !ok || s >= n.t.Transfers || idx != 0 {
			return w, false
		}
		w.slot = int32(s)
		_, to := n.t.Parties(s)
		return w, to == n.self
	case walDelivered, walUndelivered:
		return w, none && indexes(n.adjacent)
	case walCollateral, walSettled:
		return w, none && indexes(n.offers)
	case walAborted, walDeadline:
		return w, none && idx == 0
	}
	return w, false
}

// readSlots reads a counted list of actions and resolves each to its
// slot: it must be one of the problem's actions, and a transfer the
// principal in party slot self moves when sends is set, else one
// addressed to it.
func readSlots(d *cdec, t *model.ActionTable, self int32, sends bool) ([]int32, error) {
	out := make([]int32, 0, d.count(minAction))
	for i := cap(out); i > 0; i-- {
		a := d.action()
		s, ok := t.Slot(a)
		if !ok {
			return nil, &model.ForeignActionError{Action: a}
		}
		from, to := t.Parties(s)
		switch {
		case sends && (s >= 2*t.Transfers || from != self):
			return nil, fmt.Errorf("%v is no transfer of the principal's", a)
		case !sends && to != self:
			return nil, fmt.Errorf("%v is not addressed to the principal", a)
		}
		out = append(out, int32(s))
	}
	return out, nil
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
