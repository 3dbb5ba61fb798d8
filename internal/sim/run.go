package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"trustseq/internal/core"
	"trustseq/internal/ledger"
	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/vlog"
)

// Options configures a simulation run.
type Options struct {
	Seed        int64
	BaseLatency Time
	Jitter      Time
	// MaxMessages overrides the runaway-livelock guard. The default
	// scales with the problem: max(100_000, 256 × exchanges), so
	// population-scale runs are not cut off by the paper-scale guard.
	MaxMessages int
	// Deadline is the escrow expiry each trusted component enforces from
	// its first deposit. It must comfortably exceed the honest protocol's
	// span; the default (1000 ticks) does.
	Deadline Time
	// Defectors maps principals to the number of their own protocol steps
	// they perform before going silent. 0 is a fully silent defector.
	// Principals not in the map are honest. A defector also corrupts any
	// trusted component it plays as a persona.
	Defectors map[model.PartyID]int
	// NotifyDropRate injects control-plane message loss (see
	// Config.NotifyDropRate).
	NotifyDropRate float64
	// Faults composes the deterministic fault injectors — duplication,
	// bounded reordering, latency spikes, link partitions and
	// crash-restarts of trusted nodes. Nil injects nothing beyond
	// NotifyDropRate. The plan is validated against the problem.
	Faults *FaultPlan
	// NotifyRetries enables the notification retry layer: every notify
	// is re-sent up to that many extra times with exponential backoff
	// and jitter (see Config.NotifyRetries). RetryBase tunes the first
	// delay (default 8 ticks).
	NotifyRetries int
	RetryBase     Time
	// Obs receives a span per run, the per-message audit events and the
	// network counters (see Config.Obs). Nil disables; telemetry never
	// changes the simulated schedule.
	Obs *obs.Telemetry
	// Checkpoint, when set, makes Run record at Checkpoint.Path the
	// prefix of the run delivered before the first event at or after
	// Checkpoint.At. RestoreRun re-runs the plan and checks that prefix
	// before it returns the result (see checkpoint.go).
	Checkpoint *CheckpointSpec
	// VLog builds the verifiable settlement log over the delivered
	// trace after quiescence (see internal/vlog): Result gains a
	// SettlementLog and SettlementRoot, and ReplayBalancesVerified
	// becomes available. The log is assembled from the trace the run
	// already records, so enabling it changes no schedule, verdict, or
	// trace byte.
	VLog bool

	// queue is the tests' event-queue seam (see Config.queue).
	queue func(n int) eventQueue
}

// Result is the outcome of a simulation.
type Result struct {
	Problem *model.Compiled
	// State is the exchange state assembled from every delivered message.
	State model.State
	// Final per-party balances.
	Balances map[model.PartyID]*model.Holding
	// Messages delivered (excluding timers).
	Messages int
	// Duration is the virtual time at quiescence.
	Duration Time
	// Faults are protocol errors principals hit (unfundable steps).
	Faults []error
	// DuplicateActions counts actions delivered more than once (bounced
	// and re-sent transfers); they are recorded once in State.
	DuplicateActions int
	// DroppedNotifies counts control messages lost in transit.
	DroppedNotifies int
	// FaultStats counts what the fault plan actually injected.
	FaultStats FaultStats
	// Trace holds every delivered message in delivery order; render it
	// with RenderTrace.
	Trace []Message
	// SettlementLog is the verifiable log over Trace (one leaf per
	// entry, in order) and SettlementRoot its Merkle root in hex. Both
	// are set only when Options.VLog was on.
	SettlementLog  *vlog.Log
	SettlementRoot string
}

// Completed reports whether every exchange delivered in full.
func (r *Result) Completed() bool {
	for ei := range r.Problem.Exchanges {
		if !r.State.Delivered(ei) {
			return false
		}
	}
	return true
}

// AcceptableTo reports whether the final state satisfies the principal's
// full conjunction acceptability.
func (r *Result) AcceptableTo(id model.PartyID) bool {
	return model.Acceptable(id, r.State)
}

// AssetsSafeFor reports whether the final state preserves the
// principal's per-exchange asset integrity.
func (r *Result) AssetsSafeFor(id model.PartyID) bool {
	return model.AcceptableAssets(id, r.State)
}

// TrustedNeutral reports whether a trusted component ended holding
// nothing.
func (r *Result) TrustedNeutral(id model.PartyID) bool {
	h, ok := r.Balances[id]
	return ok && h.IsEmpty()
}

// Summary renders the run outcome.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v messages=%d duration=%d faults=%d\n",
		r.Completed(), r.Messages, r.Duration, len(r.Faults))
	ids := make([]string, 0, len(r.Balances))
	for id := range r.Balances {
		if id == ledger.TransitID {
			continue
		}
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "  %s: %v\n", id, r.Balances[model.PartyID(id)])
	}
	return b.String()
}

// runtime is one assembled simulation: the network, the ledger wired
// into it, and the node roster.
type runtime struct {
	plan       *core.Plan
	opts       Options // normalized (defaults applied)
	p          *model.Compiled
	net        *Network
	book       *ledger.Ledger
	trusted    []*TrustedNode
	principals []*PrincipalNode
	ph         *phases // nil unless Run is traced
}

// setupRun validates the plan and options and assembles the runtime:
// ledger, network, and every node, placed but not yet initialized.
//
// The network takes its party slots from the problem's party order with
// the transit account last, so it shares one slot space with the ledger
// and the problem's action table, and each node is placed at its party
// slot: no party is looked up by ID. Every transfer is sent as its slot
// in the table, whose endpoints and cells delivery and both ledger
// movements read by index.
func setupRun(plan *core.Plan, opts Options) (*runtime, error) {
	if !plan.Feasible {
		return nil, core.ErrInfeasible
	}
	if opts.Deadline <= 0 {
		opts.Deadline = 1000
	}
	p := plan.Problem
	if err := opts.Faults.Validate(p); err != nil {
		return nil, err
	}
	if opts.MaxMessages <= 0 {
		opts.MaxMessages = 100_000
		if scaled := 256 * len(p.Exchanges); scaled > opts.MaxMessages {
			opts.MaxMessages = scaled
		}
	}

	net := NewNetwork(Config{
		Seed: opts.Seed, BaseLatency: opts.BaseLatency, Jitter: opts.Jitter,
		MaxMessages: opts.MaxMessages, NotifyDropRate: opts.NotifyDropRate,
		Faults: opts.Faults, NotifyRetries: opts.NotifyRetries,
		RetryBase: opts.RetryBase, Obs: opts.Obs, queue: opts.queue,
	}, p)
	// A run delivers about one message per plan action; the livelock
	// guard bounds it either way.
	actions := 0
	for i := range plan.Steps {
		actions += len(plan.Steps[i].Slots)
	}
	net.trace = make([]Message, 0, min(actions, opts.MaxMessages))
	book := ledger.New(p)
	net.book = book

	rs := &runtime{plan: plan, opts: opts, p: p, net: net, book: book}
	rs.trusted = trustedNodes(p, net.table.Trusteds, opts.Deadline)
	for _, tn := range rs.trusted {
		if tn.owner >= 0 {
			// A defector corrupts the persona trusted it plays.
			_, defects := opts.Defectors[tn.PersonaOwner]
			tn.Honest = !defects
		}
		net.nodes[tn.self] = tn
	}
	rs.principals = BuildPrincipalNodes(plan, opts.Defectors)
	for _, pn := range rs.principals {
		net.nodes[pn.self] = pn
	}
	return rs, nil
}

// assemble builds the Result after the event loop has quiesced, and
// the settlement log when the run asked for one.
func (rs *runtime) assemble() (*Result, error) {
	rs.ph.begin("sim.phase.assemble")
	p, net := rs.p, rs.net
	res := &Result{
		Problem:         p,
		State:           net.table.NewState(),
		Balances:        make(map[model.PartyID]*model.Holding, net.transit+1),
		Duration:        net.Now(),
		DroppedNotifies: net.dropped,
		Trace:           net.trace,
		FaultStats:      net.fstats,
	}
	for _, m := range res.Trace {
		if m.Kind == MsgCrash || m.Kind == MsgRestart {
			continue // fault events are not deliveries
		}
		res.Messages++
		if m.Tag != "" {
			continue // control messages are not exchange actions
		}
		if m.slot < 0 {
			return nil, fmt.Errorf("sim: delivered %w", &model.ForeignActionError{Action: m.Action})
		}
		if !res.State.AddSlot(int(m.slot)) {
			res.DuplicateActions++
		}
	}
	// Every account is a slot up to the transit account's, the last.
	for s := int32(0); s <= net.transit; s++ {
		res.Balances[net.ids[s]] = rs.book.HoldingAt(s)
	}
	if h := res.Balances[ledger.TransitID]; !h.IsEmpty() {
		return nil, fmt.Errorf("sim: assets stuck in transit: %v", h)
	}
	if err := rs.book.Audit(); err != nil {
		return nil, err
	}
	for _, node := range rs.principals {
		res.Faults = append(res.Faults, node.Faults()...)
	}
	rs.ph.end()
	if rs.opts.VLog {
		rs.ph.begin("sim.phase.settlement")
		res.SettlementLog = SettlementLog(res.Trace)
		res.SettlementRoot = res.SettlementLog.Root().String()
		rs.ph.end()
	}
	return res, nil
}

// Run executes a synthesized plan on the simulated network. The plan
// must be feasible. With opts.Checkpoint set it also writes the run's
// checkpoint (see checkpoint.go).
func Run(plan *core.Plan, opts Options) (*Result, error) {
	spec := opts.Checkpoint
	if spec == nil {
		res, _, err := execute(plan, opts, nil)
		return res, err
	}
	res, c, err := execute(plan, opts, &spec.At)
	if err != nil {
		return nil, err
	}
	if err := writeFileAtomic(spec.Path, c.encode()); err != nil {
		return nil, fmt.Errorf("sim: writing checkpoint: %w", err)
	}
	return res, nil
}

// execute runs the plan. With at set it also returns the run's
// checkpoint at tick *at, or fails with ErrCheckpointNotReached when no
// event reached the tick. The checkpoint's digests are hashed on another
// goroutine beside the event loop, and its prefix beside the rest of the
// loop and the assembly once the loop has passed the tick.
func execute(plan *core.Plan, opts Options, at *Time) (*Result, checkpoint, error) {
	var c checkpoint
	ph := startPhases(opts, plan.Problem)
	ph.begin("sim.phase.setup")
	rs, err := setupRun(plan, opts)
	if err != nil {
		return nil, c, ph.fail(err)
	}
	rs.ph = ph
	var digests chan checkpoint
	if at != nil {
		digests = make(chan checkpoint, 1)
		go func() { digests <- checkpoint{plan: planDigest(plan), opts: optionsDigest(rs.opts)} }()
	}
	ph.end()
	ph.begin("sim.phase.loop")
	net, stop := rs.net, endOfTime
	if at != nil {
		stop = *at
	}
	net.start()
	err = net.runUntil(stop)
	var finish func(*Result) prefix
	if err == nil && at != nil && net.now >= *at {
		// The prefix is complete: hash it beside the rest of the run.
		finish = startPrefix(net.trace, *at, rs.opts.VLog)
		err = net.runUntil(endOfTime)
	}
	if err != nil {
		return nil, c, ph.fail(err)
	}
	if at != nil && (finish == nil || net.processed == 0) {
		return nil, c, ph.fail(fmt.Errorf("%w: asked for tick %d, the run ended at tick %d",
			ErrCheckpointNotReached, *at, net.now))
	}
	ph.end()
	res, err := rs.assemble()
	if err != nil {
		return nil, c, ph.fail(err)
	}
	if at != nil {
		c = <-digests
		c.prefix = finish(res)
	}
	ph.finish(res)
	return res, c, nil
}

// phases times a traced run's coarse phases — sim.phase.setup, .loop,
// .assemble and .settlement — as child spans of its sim.run span, and as
// duration histograms of the same names, in seconds. A nil *phases, the
// untraced case, does nothing and reads no clock.
type phases struct {
	tel   *obs.Telemetry
	run   obs.Span
	cur   obs.Span
	name  string // the open phase
	start time.Time
}

// startPhases opens the sim.run span, or returns nil when opts.Obs is
// disabled.
func startPhases(opts Options, p *model.Compiled) *phases {
	tel := opts.Obs
	if !tel.Enabled() {
		return nil
	}
	return &phases{tel: tel, run: tel.Trace().StartSpan("sim.run",
		obs.Str("problem", p.Name),
		obs.Int64("seed", opts.Seed),
		obs.Int("defectors", len(opts.Defectors)),
		obs.Bool("faults", opts.Faults.Enabled()))}
}

// begin opens the named phase.
func (ph *phases) begin(name string) {
	if ph == nil {
		return
	}
	ph.name, ph.start = name, time.Now()
	ph.cur = ph.run.StartChild(name)
}

// end closes the open phase and records its duration.
func (ph *phases) end() {
	if ph == nil {
		return
	}
	ph.cur.End()
	ph.tel.Reg().Histogram(ph.name, obs.DurationBuckets()).Observe(time.Since(ph.start).Seconds())
}

// fail closes the open phase and the run span with the error, and
// returns the error.
func (ph *phases) fail(err error) error {
	if ph != nil {
		ph.end()
		ph.run.End(obs.Str("error", err.Error()))
	}
	return err
}

// finish closes the run span with the run's outcome.
func (ph *phases) finish(res *Result) {
	if ph == nil {
		return
	}
	ph.tel.Reg().Counter("sim.runs").Inc()
	ph.run.End(
		obs.Bool("completed", res.Completed()),
		obs.Int("messages", res.Messages),
		obs.Int64("duration_ticks", int64(res.Duration)),
		obs.Int("faults", len(res.Faults)),
		obs.Int("dropped", res.DroppedNotifies),
		obs.Int("crashes", res.FaultStats.Crashes))
}
