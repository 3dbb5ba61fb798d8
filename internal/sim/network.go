package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"trustseq/internal/ledger"
	"trustseq/internal/model"
	"trustseq/internal/obs"
)

// Time is virtual time in ticks.
type Time int64

// MsgKind classifies simulator messages.
type MsgKind int

// Message kinds. Transfers move assets through the ledger; notifies move
// information; timers are self-scheduled wakeups. Crash and restart are
// fault events injected by a FaultPlan: they appear in the trace (the
// audit log records when a trusted node was down) but move nothing, so
// replay skips them.
const (
	MsgTransfer MsgKind = iota + 1
	MsgNotify
	MsgTimer
	MsgCrash
	MsgRestart
)

// String names the kind.
func (k MsgKind) String() string {
	switch k {
	case MsgTransfer:
		return "transfer"
	case MsgNotify:
		return "notify"
	case MsgTimer:
		return "timer"
	case MsgCrash:
		return "crash"
	case MsgRestart:
		return "restart"
	default:
		return fmt.Sprintf("msg(%d)", int(k))
	}
}

// Message is one network event.
type Message struct {
	At       Time
	From, To model.PartyID
	Kind     MsgKind
	// Action is the model action a transfer or notify performs.
	Action model.Action
	// Tag carries timer identification (e.g. "deadline:3").
	Tag string

	seq int // FIFO tiebreaker for equal delivery times
	// to is the party slot of To (-1 when unknown). A transfer or an
	// untagged notify sent in a run is sent as slot, its action's slot
	// in the problem's action table, and To and Action are read from the
	// table, so delivery, both ledger movements and the assembled State
	// index arrays instead of hashing party and item IDs. Other messages
	// carry no action slot.
	to, slot int32
}

// String renders the message.
func (m Message) String() string {
	switch m.Kind {
	case MsgTimer:
		return fmt.Sprintf("@%d timer %s at %s", m.At, m.Tag, m.To)
	case MsgCrash:
		return fmt.Sprintf("@%d crash %s", m.At, m.To)
	case MsgRestart:
		return fmt.Sprintf("@%d restart %s", m.At, m.To)
	case MsgNotify:
		return fmt.Sprintf("@%d %v", m.At, m.Action)
	default:
		return fmt.Sprintf("@%d %v", m.At, m.Action)
	}
}

// FaultStats counts what a run's fault injection actually did — the
// property tests use it to prove the chaos is real, and Result carries
// it so CLIs can report it.
type FaultStats struct {
	// DupNotifies counts duplicated notification copies scheduled.
	DupNotifies int
	// Reorders counts messages given extra bounded latency.
	Reorders int
	// Spikes counts latency spikes applied.
	Spikes int
	// PartitionDrops counts notifications lost to a cut link.
	PartitionDrops int
	// CrashDrops counts notifications and armed timers lost because the
	// target was down.
	CrashDrops int
	// Deferred counts transfers (and recall demands) held back by a
	// partition or a down node and delivered after heal/restart.
	Deferred int
	// RetriesSent counts extra notification copies from the retry layer.
	RetriesSent int
	// Crashes and Restarts count fault events processed.
	Crashes  int
	Restarts int
}

// Node is a simulated participant.
type Node interface {
	ID() model.PartyID
	// Init runs before the first event; nodes schedule their opening
	// moves here.
	Init(ctx *Context)
	// OnMessage handles one delivered message.
	OnMessage(ctx *Context, m Message)
}

// Recoverable is a node that survives scheduled crash-restarts: Crash
// wipes its volatile state (the durable log survives), Restore rebuilds
// from the log and runs the recovery protocol — re-arming timers and
// executing any compensations the outage made due.
type Recoverable interface {
	Node
	Crash()
	Restore(ctx *Context)
}

// Network is the deterministic discrete-event simulator core.
//
// Node state is indexed by party slot: the node table, down flags, and
// crash bookkeeping are flat arrays indexed by slot. The slots are the
// problem's parties in order, the transit account last, so the network,
// a run's ledger and the problem's action table share one slot space
// and IDs resolve through the table's party index. Every message
// carries its receiver's party slot and its action's slot, so a
// delivery hashes no ID. The event queue is the hierarchical timing
// wheel (see wheel.go); delivery reuses one scratch Context, so
// scheduling plus delivering a message allocates nothing at steady
// state.
type Network struct {
	ids       []model.PartyID // by party slot
	order     []int32         // party slots by ID: the node init order
	nodes     []Node          // by party slot
	q         eventQueue
	now       Time
	seq       int
	processed int
	rng       *rand.Rand
	baseLat   Time
	jitter    Time
	trace     []Message
	maxMsgs   int
	dropRate  float64
	dropped   int

	// Fault-injection state: the plan, the per-slot down flags with the
	// pending restart ticks, and the realized-fault counters.
	faults    *FaultPlan
	retries   int
	retryBase Time
	down      []bool   // by party slot
	restartAt []Time   // by party slot
	crashEnds [][]Time // by party slot, ascending
	fstats    FaultStats

	// ctx is the scratch delivery context, reused across callbacks.
	// It is valid only for the duration of one callback; no node
	// retains it.
	ctx Context

	// table is the problem's action table. book, when set, is a run's
	// ledger over the network's party slots and the table's cells: a
	// transfer debits its mover into the transit account at slot
	// transit when sent (so in-flight assets cannot be double-spent)
	// and credits its receiver when delivered.
	book    *ledger.Ledger
	table   *model.ActionTable
	transit int32

	// tel receives one trace event per delivered message (the
	// replayable audit log) plus drop events; nil disables.
	tel *obs.Telemetry
}

// debit moves a sent transfer's asset from its mover into transit.
func (n *Network) debit(m *Message) error {
	mover, cash, src, dst := n.asset(m)
	return n.book.TransferAt(mover, n.transit, cash, src, n.book.InFlight(dst))
}

// credit moves a delivered transfer's asset from transit to its
// receiver.
func (n *Network) credit(m *Message) error {
	_, cash, _, dst := n.asset(m)
	return n.book.TransferAt(n.transit, m.to, cash, n.book.InFlight(dst), dst)
}

// asset reads a transfer message's slot in the action table: the party
// slot of the asset's mover, the money it moves, and for a give the
// cells the document leaves and enters (-1 for a pay).
func (n *Network) asset(m *Message) (mover int32, cash model.Money, src, dst int32) {
	t := n.table
	fwd, from, to := t.Endpoints(int(m.slot))
	if !t.Give[fwd] {
		return from, t.Cash[fwd], -1, -1
	}
	return t.CellParty[from], 0, from, to
}

// Config tunes the network.
type Config struct {
	Seed        int64
	BaseLatency Time // per-message latency floor (default 1)
	Jitter      Time // uniform extra latency in [0, Jitter]; zero (or negative) means none
	MaxMessages int  // runaway guard (default 100_000)
	// NotifyDropRate is the probability in [0,1) that a notification
	// (control-plane message) is lost. Transfers are never dropped: the
	// value-transfer layer is assumed reliable, exactly as the paper
	// scopes out payment-mechanism failures; loss of notifications is
	// the distributed-systems failure the deadline machinery must
	// absorb.
	NotifyDropRate float64
	// Faults composes the deterministic fault injectors (duplication,
	// reordering, spikes, partitions, crash-restarts). Nil injects
	// nothing beyond NotifyDropRate.
	Faults *FaultPlan
	// NotifyRetries re-sends every notification up to that many extra
	// times with exponentially backed-off, jittered delays (clamped to
	// 6). Receivers are idempotent, so retries change liveness under
	// faults, never the protocol outcome. 0 disables.
	NotifyRetries int
	// RetryBase is the first retry delay (default 8 ticks).
	RetryBase Time
	// Obs receives per-message trace events and network counters.
	// Telemetry is additive: it never alters scheduling, so a traced
	// run is tick-for-tick identical to an untraced one.
	Obs *obs.Telemetry

	// queue, when set, builds the event queue in place of the timing
	// wheel: the tests' seam for the binary-heap oracle.
	queue func(n int) eventQueue
}

// NewNetwork builds an empty network over problem p. Its party slots
// are p's parties in order with the transit account last, so the
// network, a run's ledger and p's action table share one slot space,
// and it resolves party IDs through the table's party index. Each node
// is placed at its party's slot, and Run initialises them in the order
// of their party IDs, which NewNetwork sorts once.
func NewNetwork(cfg Config, p *model.Compiled) *Network {
	if cfg.BaseLatency <= 0 {
		cfg.BaseLatency = 1
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.MaxMessages <= 0 {
		cfg.MaxMessages = 100_000
	}
	if cfg.NotifyRetries < 0 {
		cfg.NotifyRetries = 0
	}
	if cfg.NotifyRetries > 6 {
		cfg.NotifyRetries = 6
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 8
	}
	if cfg.queue == nil {
		cfg.queue = newQueue
	}
	k := len(p.Parties) + 1 // the parties, then the transit account
	ids := make([]model.PartyID, k)
	for i, pa := range p.Parties {
		ids[i] = pa.ID
	}
	ids[k-1] = ledger.TransitID
	n := &Network{
		ids:       ids,
		order:     byID(ids),
		nodes:     make([]Node, k),
		q:         cfg.queue(k), // a node rarely has more than one event pending
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		baseLat:   cfg.BaseLatency,
		jitter:    cfg.Jitter,
		maxMsgs:   cfg.MaxMessages,
		dropRate:  cfg.NotifyDropRate,
		faults:    cfg.Faults,
		retries:   cfg.NotifyRetries,
		retryBase: cfg.RetryBase,
		down:      make([]bool, k),
		restartAt: make([]Time, k),
		crashEnds: make([][]Time, k),
		table:     p.ActionTable(),
		transit:   int32(k - 1),
		tel:       cfg.Obs,
	}
	n.ctx = Context{net: n}
	return n
}

// byID returns the slots of ids in ascending order of ID. Past a few
// hundred IDs it radix-sorts on each ID's first eight bytes, then sorts
// by the whole ID only the runs that tie on them, so the tens of
// thousands of short IDs of a population sort in a few linear passes
// rather than in n·log n string comparisons.
func byID(ids []model.PartyID) []int32 {
	order := make([]int32, len(ids))
	if len(ids) < 256 {
		// Comparisons are cheaper here than the radix passes' counts.
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			return strings.Compare(string(ids[a]), string(ids[b]))
		})
		return order
	}
	type keyed struct {
		key  uint64 // the ID's first eight bytes, big-endian, zero-padded
		slot int32
	}
	ks, tmp := make([]keyed, len(ids)), make([]keyed, len(ids))
	var varies uint64 // the key bits in which some ID differs from the first
	for i, id := range ids {
		var b [8]byte
		copy(b[:], id)
		ks[i] = keyed{binary.BigEndian.Uint64(b[:]), int32(i)}
		varies |= ks[i].key ^ ks[0].key
	}
	for shift := 0; shift < 64; shift += 8 {
		if varies>>shift&0xff == 0 {
			continue // every key has this byte alike
		}
		var at [257]int
		for _, k := range ks {
			at[k.key>>shift&0xff+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, k := range ks {
			d := k.key >> shift & 0xff
			tmp[at[d]] = k
			at[d]++
		}
		ks, tmp = tmp, ks
	}
	for i := 0; i < len(ks); {
		j := i + 1
		for j < len(ks) && ks[j].key == ks[i].key {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ks[i:j], func(a, b keyed) int {
				return strings.Compare(string(ids[a.slot]), string(ids[b.slot]))
			})
		}
		for ; i < j; i++ {
			order[i] = ks[i].slot
		}
	}
	return order
}

// lookup returns a party's slot, -1 when it has none.
func (n *Network) lookup(id model.PartyID) int32 {
	if i, ok := n.table.PartySlot(id); ok {
		return int32(i)
	}
	return -1
}

// ErrUndefinedTransfer is the error of a transfer the problem does not
// define: its slot is outside the forward and compensation slots of the
// action table, so it has no place in the ledger. It fails closed at
// send, before any debit.
var ErrUndefinedTransfer = errors.New("sim: transfer the problem does not define")

// AddNode places a node at its party's slot. The node must play a
// party of the network's problem.
func (n *Network) AddNode(node Node) {
	p := n.lookup(node.ID())
	if p < 0 {
		panic(fmt.Sprintf("sim: node %s plays no party of the problem", node.ID()))
	}
	n.nodes[p] = node
}

// Now returns the current virtual time.
func (n *Network) Now() Time { return n.now }

func (n *Network) schedule(m Message) {
	m.seq = n.seq
	n.seq++
	n.q.push(m)
}

// reliable reports whether a message rides the reliable channel:
// transfers always (the paper scopes out payment-mechanism failures),
// and the trusted component's recall demand — the §2.5 unwind is an
// enforcement action, so its control message is carried with
// transfer-grade delivery (deferred by partitions and crashes, never
// lost). Everything else is a best-effort notification.
func reliable(m Message) bool {
	return m.Kind == MsgTransfer || strings.HasPrefix(m.Tag, "recall:")
}

// send schedules a message with network latency and fault injection,
// then layers the notify retry copies on top. Notifications may be
// lost; reliable messages never are.
func (n *Network) send(m Message) {
	n.sendAfter(m, 0)
	if m.Kind != MsgNotify || n.retries == 0 {
		return
	}
	delay := n.retryBase
	for i := 0; i < n.retries; i++ {
		jit := Time(0)
		if n.jitter > 0 {
			jit = Time(n.rng.Int63n(int64(n.jitter) + 1))
		}
		n.fstats.RetriesSent++
		if n.tel.Enabled() {
			n.tel.Reg().Counter("sim.notifies.retried").Inc()
		}
		n.sendAfter(m, delay+jit)
		delay *= 2
	}
}

// sendAfter schedules one copy of a message with `extra` latency on top
// of the network's base+jitter, running it through the fault injectors
// in a fixed order (drop, partition, reorder, spike, duplication) so
// the RNG stream — and therefore the schedule — is deterministic.
func (n *Network) sendAfter(m Message, extra Time) {
	if !reliable(m) && n.dropRate > 0 && n.rng.Float64() < n.dropRate {
		n.dropped++
		if n.tel.Enabled() {
			n.tel.Reg().Counter("sim.notifies.dropped").Inc()
			n.tel.Trace().Event("sim.drop",
				obs.Int64("t", int64(n.now)),
				obs.Str("from", string(m.From)),
				obs.Str("to", string(m.To)))
		}
		return
	}
	lat := n.baseLat + extra
	if n.jitter > 0 {
		lat += Time(n.rng.Int63n(int64(n.jitter) + 1))
	}
	f := n.faults
	if f == nil {
		m.At = n.now + lat
		n.schedule(m)
		return
	}
	if heal, cut := n.partitioned(m.From, m.To); cut {
		if !reliable(m) {
			n.fstats.PartitionDrops++
			if n.tel.Enabled() {
				n.tel.Reg().Counter("sim.faults.partition_drops").Inc()
			}
			return
		}
		// Reliable traffic waits out the partition.
		n.fstats.Deferred++
		if n.tel.Enabled() {
			n.tel.Reg().Counter("sim.faults.deferred").Inc()
		}
		m.At = heal + lat
		n.schedule(m)
		return
	}
	if f.ReorderRate > 0 && n.rng.Float64() < f.ReorderRate {
		lat += 1 + Time(n.rng.Int63n(int64(f.ReorderBound)))
		n.fstats.Reorders++
	}
	if f.SpikeRate > 0 && n.rng.Float64() < f.SpikeRate {
		lat += f.SpikeTicks
		n.fstats.Spikes++
	}
	if m.Kind == MsgNotify && f.DupRate > 0 && n.rng.Float64() < f.DupRate {
		dupLat := n.baseLat
		if n.jitter > 0 {
			dupLat += Time(n.rng.Int63n(int64(n.jitter) + 1))
		}
		dup := m
		dup.At = n.now + dupLat
		n.fstats.DupNotifies++
		if n.tel.Enabled() {
			n.tel.Reg().Counter("sim.faults.dup_notifies").Inc()
		}
		n.schedule(dup)
	}
	m.At = n.now + lat
	n.schedule(m)
}

// partitioned reports whether the from→to link is cut right now, and if
// so when it heals (the latest heal tick across matching partitions).
func (n *Network) partitioned(from, to model.PartyID) (heal Time, cut bool) {
	if n.faults == nil {
		return 0, false
	}
	for _, pt := range n.faults.Partitions {
		if pt.covers(n.now, from, to) {
			cut = true
			if pt.Until > heal {
				heal = pt.Until
			}
		}
	}
	return heal, cut
}

// timer schedules a self-wakeup at an absolute time for the node at
// slot p.
func (n *Network) timer(to model.PartyID, p int32, at Time, tag string) {
	n.schedule(Message{At: at, From: to, To: to, Kind: MsgTimer, Tag: tag, to: p})
}

// Run initializes every node in the deterministic order of their party
// IDs, schedules the fault plan's crash events, and processes events to
// quiescence.
func (n *Network) Run() error {
	n.start()
	return n.runUntil(endOfTime)
}

// endOfTime is a tick no event reaches.
const endOfTime = Time(math.MaxInt64)

// start schedules the fault plan's crash events and initializes every
// node in the deterministic order of their party IDs.
func (n *Network) start() {
	n.scheduleCrashes()
	for _, p := range n.order {
		if node := n.nodes[p]; node != nil {
			n.ctx.self, n.ctx.slot = n.ids[p], p
			node.Init(&n.ctx)
		}
	}
}

// runUntil processes events until it has delivered one at or after tick
// t, or to quiescence. Events pop in nondecreasing At, so once it
// returns, every event before t has been delivered.
func (n *Network) runUntil(t Time) error {
	for n.now < t {
		more, err := n.step()
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// step pops and delivers exactly one event, reporting false once the
// queue has drained. The steady-state alloc budget is enforced around
// this unit (see alloc_test.go).
func (n *Network) step() (bool, error) {
	m, ok := n.q.pop()
	if !ok {
		return false, nil
	}
	if m.At > n.now {
		n.now = m.At
	}
	n.processed++
	if n.processed > n.maxMsgs {
		return false, fmt.Errorf("sim: exceeded %d messages; likely livelock", n.maxMsgs)
	}
	p := m.to
	if p < 0 || int(p) >= len(n.nodes) || n.nodes[p] == nil {
		return false, fmt.Errorf("sim: message to unknown node %s", m.To)
	}
	node := n.nodes[p]
	switch m.Kind {
	case MsgCrash:
		n.handleCrash(m, p, node)
		return true, nil
	case MsgRestart:
		n.handleRestart(m, p, node)
		return true, nil
	}
	if n.down[p] {
		n.divert(p, m)
		return true, nil
	}
	if m.Kind != MsgTimer {
		n.trace = append(n.trace, m)
		if m.Kind == MsgTransfer && n.book != nil {
			if err := n.credit(&m); err != nil {
				return false, fmt.Errorf("sim: delivering %v: %w", m, err)
			}
		}
		if n.tel.Enabled() {
			n.observeDelivery(m)
		}
	} else if n.tel.Enabled() {
		n.tel.Reg().Counter("sim.timers").Inc()
	}
	n.ctx.self, n.ctx.slot = m.To, p
	node.OnMessage(&n.ctx, m)
	return true, nil
}

// scheduleCrashes turns the fault plan's crash events into scheduled
// crash/restart messages and records each node's restart ticks in At
// order. The sort is stable, so equal-tick crash events keep the
// plan's order by construction (Validate additionally guarantees the
// windows don't overlap).
func (n *Network) scheduleCrashes() {
	if n.faults == nil {
		return
	}
	evs := append([]CrashEvent(nil), n.faults.Crashes...)
	slices.SortStableFunc(evs, func(a, b CrashEvent) int {
		if a.At != b.At {
			return int(a.At - b.At)
		}
		return strings.Compare(string(a.Node), string(b.Node))
	})
	for _, ev := range evs {
		end := ev.At + ev.Downtime
		p := n.lookup(ev.Node)
		n.crashEnds[p] = append(n.crashEnds[p], end)
		n.schedule(Message{At: ev.At, From: ev.Node, To: ev.Node, Kind: MsgCrash, Tag: "crash", to: p})
		n.schedule(Message{At: end, From: ev.Node, To: ev.Node, Kind: MsgRestart, Tag: "restart", to: p})
	}
}

// handleCrash marks the node down and wipes its volatile state. The
// event lands in the trace: the audit log records the outage.
func (n *Network) handleCrash(m Message, p int32, node Node) {
	n.down[p] = true
	ends := n.crashEnds[p]
	n.restartAt[p] = ends[0]
	n.crashEnds[p] = ends[1:]
	n.fstats.Crashes++
	n.trace = append(n.trace, m)
	if r, ok := node.(Recoverable); ok {
		r.Crash()
	}
	if n.tel.Enabled() {
		n.tel.Reg().Counter("sim.crashes").Inc()
		n.tel.Trace().Event("sim.crash",
			obs.Int64("t", int64(m.At)),
			obs.Str("node", string(m.To)))
	}
}

// handleRestart brings the node back and lets it restore from its
// durable log.
func (n *Network) handleRestart(m Message, p int32, node Node) {
	n.down[p] = false
	n.fstats.Restarts++
	n.trace = append(n.trace, m)
	if r, ok := node.(Recoverable); ok {
		n.ctx.self, n.ctx.slot = m.To, p
		r.Restore(&n.ctx)
	}
	if n.tel.Enabled() {
		n.tel.Reg().Counter("sim.restarts").Inc()
		n.tel.Trace().Event("sim.restart",
			obs.Int64("t", int64(m.At)),
			obs.Str("node", string(m.To)))
	}
}

// divert disposes of a message addressed to a down node: timers and
// notifications are lost (the node was not there to hear them);
// reliable traffic is re-delivered right after the restart.
func (n *Network) divert(p int32, m Message) {
	if !reliable(m) {
		// Best-effort notifications and armed timers die with the node:
		// a crashed trustee's deadline timer is gone, and recovery must
		// re-arm it from the durable log.
		n.fstats.CrashDrops++
		if n.tel.Enabled() {
			n.tel.Reg().Counter("sim.faults.crash_drops").Inc()
		}
		return
	}
	n.fstats.Deferred++
	if n.tel.Enabled() {
		n.tel.Reg().Counter("sim.faults.deferred").Inc()
	}
	m.At = n.restartAt[p]
	n.schedule(m)
}

// observeDelivery emits the audit-log record of one delivered message:
// virtual timestamp, endpoints, kind, the action performed, and whether
// it is a compensation (refund/unwind) or a tagged control message.
// Together with sim.drop events this is the replayable §5 commit/unwind
// log — ReplayBalances reconstructs the final balances from exactly
// these transfers.
func (n *Network) observeDelivery(m Message) {
	reg := n.tel.Reg()
	reg.Counter("sim.messages").Inc()
	kind := "notify"
	if m.Kind == MsgTransfer {
		kind = "transfer"
		reg.Counter("sim.transfers").Inc()
		if m.Action.Inverse {
			reg.Counter("sim.unwinds").Inc()
		}
	}
	n.tel.Trace().Event("sim.deliver",
		obs.Int64("t", int64(m.At)),
		obs.Str("kind", kind),
		obs.Str("from", string(m.From)),
		obs.Str("to", string(m.To)),
		obs.Str("action", m.Action.String()),
		obs.Bool("unwind", m.Kind == MsgTransfer && m.Action.Inverse),
		obs.Str("tag", m.Tag))
}

// Context is the API a node uses during a callback. The network hands
// every callback the same scratch Context, so a node must not retain
// it past the callback's return.
type Context struct {
	net  *Network
	self model.PartyID
	slot int32 // self's party slot
}

// Now returns the virtual time.
func (c *Context) Now() Time { return c.net.now }

// Self returns the node's ID.
func (c *Context) Self() model.PartyID { return c.self }

// sendTransfer performs and sends the transfer in slot s of the run's
// action table. The sender is debited immediately through the run's
// ledger (so in-flight assets cannot be double-spent); the receiver is
// credited at delivery. It fails when the sender cannot fund the
// transfer, and with ErrUndefinedTransfer when s is no transfer slot.
func (c *Context) sendTransfer(s int32) error {
	t := c.net.table
	if t == nil || s < 0 || int(s) >= 2*t.Transfers {
		return fmt.Errorf("%w: slot %d", ErrUndefinedTransfer, s)
	}
	_, to := t.Parties(int(s))
	m := Message{From: c.self, To: c.net.ids[to], Kind: MsgTransfer, Action: t.Action(int(s)), to: to, slot: s}
	if err := c.net.debit(&m); err != nil {
		return err
	}
	c.net.send(m)
	return nil
}

// sendNotify sends the notify in slot s of the run's action table.
func (c *Context) sendNotify(s int32) {
	t := c.net.table
	_, to := t.Parties(int(s))
	c.net.send(Message{From: c.self, To: c.net.ids[to], Kind: MsgNotify, Action: t.Action(int(s)), to: to, slot: s})
}

// SendTagged sends a notification carrying a protocol tag (e.g. the
// persona trustee's recall demand). Tagged notifies are control
// messages; they do not enter the exchange state.
func (c *Context) SendTagged(to model.PartyID, tag string) {
	c.sendTagged(to, c.net.lookup(to), tag)
}

// sendTagged is SendTagged to the party in slot p.
func (c *Context) sendTagged(to model.PartyID, p int32, tag string) {
	c.net.send(Message{From: c.self, To: to, Kind: MsgNotify, Tag: tag, Action: model.Notify(c.self, to),
		to: p, slot: -1})
}

// SetTimer schedules a wakeup after delay.
func (c *Context) SetTimer(delay Time, tag string) {
	c.net.timer(c.self, c.slot, c.net.now+delay, tag)
}
