package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"trustseq/internal/model"
	"trustseq/internal/obs"
	"trustseq/internal/safety"
	"trustseq/internal/sequencing"
)

// StepKind classifies plan steps.
type StepKind int

// The step kinds, in the rough order they appear in a plan.
const (
	StepInvalid StepKind = iota
	StepCommit
	StepIndemnityPost
	StepDeposit
	StepNotify
	StepDeliver
	StepIndemnityRefund
)

// String names the step kind.
func (k StepKind) String() string {
	switch k {
	case StepCommit:
		return "commit"
	case StepIndemnityPost:
		return "indemnity-post"
	case StepDeposit:
		return "deposit"
	case StepNotify:
		return "notify"
	case StepDeliver:
		return "deliver"
	case StepIndemnityRefund:
		return "indemnity-refund"
	default:
		return fmt.Sprintf("step(%d)", int(k))
	}
}

// Step is one entry of the execution sequence. Exchange is set for
// deposits and deliveries; Offer indexes Problem.Indemnities for the
// indemnity steps. Slots holds the primitive actions the step performs,
// in order, as slots of the problem's model.ActionTable: a deposit or a
// delivery shares its exchange's row of the table, so a plan stores no
// Action values (ActionTable.Action renders one). The slices are shared
// and read-only.
type Step struct {
	Kind     StepKind
	Exchange int
	Offer    int
	From, To model.PartyID
	Slots    []int32
}

// String renders the step the way Section 5 writes them.
func (s Step) String() string {
	switch s.Kind {
	case StepCommit:
		return fmt.Sprintf("%s commits to the exchange via %s", s.From, s.To)
	case StepIndemnityPost:
		return fmt.Sprintf("%s posts indemnity collateral with %s", s.From, s.To)
	case StepDeposit:
		return fmt.Sprintf("%s sends deposit to %s", s.From, s.To)
	case StepNotify:
		return fmt.Sprintf("%s notifies %s", s.From, s.To)
	case StepDeliver:
		return fmt.Sprintf("%s delivers to %s", s.From, s.To)
	case StepIndemnityRefund:
		return fmt.Sprintf("%s refunds indemnity collateral to %s", s.From, s.To)
	default:
		return "invalid step"
	}
}

// Plan is the result of analysing a problem: the sequencing graph, the
// reduction trace, the feasibility verdict, and — when feasible — the
// execution sequence.
type Plan struct {
	Problem    *model.Compiled
	Sequencing *sequencing.Graph
	Reduction  *sequencing.Reduction
	Feasible   bool
	Steps      []Step

	// customOrder marks a plan from SynthesizeWith: its removal order is
	// the caller's, so SynthesizeIncremental never reuses it.
	customOrder bool
}

// ErrInfeasible is reported by APIs that require a feasible plan.
var ErrInfeasible = errors.New("core: exchange is not shown feasible by sequencing-graph reduction")

// Synthesize compiles the problem and analyses it (SynthesizeObs with no
// telemetry); a problem that does not compile is an error. Callers that
// hold a compiled problem call SynthesizeObs.
func Synthesize(p *model.Problem) (*Plan, error) {
	c, err := model.Compile(p)
	if err != nil {
		return nil, err
	}
	return SynthesizeObs(c, nil)
}

// SynthesizeObs analyses the problem end to end. An infeasible exchange
// is not an error: the returned plan carries Feasible=false, the
// reduction trace and the impasse diagnosis. Errors indicate internal
// inconsistencies (a feasible reduction whose execution cannot be
// scheduled — which would falsify the paper's claim and is covered by
// tests). With telemetry, the synthesis runs in a trace span, with the
// reduction's per-rule audit events and synthesis counters/latency
// recorded against tel; nil telemetry records nothing.
func SynthesizeObs(p *model.Compiled, tel *obs.Telemetry) (*Plan, error) {
	reduce := func(g *sequencing.Graph) *sequencing.Reduction { return sequencing.Reduce(g, tel) }
	if !tel.Enabled() {
		return synthesize(p, reduce)
	}
	sp := tel.Trace().StartSpan("core.synthesize",
		obs.Str("problem", p.Name),
		obs.Int("exchanges", len(p.Exchanges)),
		obs.Int("parties", len(p.Parties)))
	start := time.Now()
	plan, err := synthesize(p, reduce)
	reg := tel.Reg()
	reg.Counter("core.synthesize.total").Inc()
	reg.Histogram("core.synthesize.seconds", obs.DurationBuckets()).Observe(time.Since(start).Seconds())
	if err != nil {
		reg.Counter("core.synthesize.errors").Inc()
		sp.End(obs.Str("error", err.Error()))
		return plan, err
	}
	if plan.Feasible {
		reg.Counter("core.synthesize.feasible").Inc()
	}
	sp.End(obs.Bool("feasible", plan.Feasible), obs.Int("steps", len(plan.Steps)))
	return plan, nil
}

// SynthesizeWith is SynthesizeObs with a caller-chosen reducer — e.g.
// sequencing.ReducePreferred with a priority reproducing a published
// reduction order. The verdict is reducer-independent (Section 4.2.4);
// the recovered execution sequence follows the reducer's removal order,
// so the plan is never a base SynthesizeIncremental reuses.
func SynthesizeWith(p *model.Compiled, reduce func(*sequencing.Graph) *sequencing.Reduction) (*Plan, error) {
	plan, err := synthesize(p, reduce)
	if plan != nil {
		plan.customOrder = true
	}
	return plan, err
}

// synthesize builds the sequencing graph, reduces it with reduce and
// schedules a feasible reduction.
func synthesize(p *model.Compiled, reduce func(*sequencing.Graph) *sequencing.Reduction) (*Plan, error) {
	sg := sequencing.Build(p)
	if err := sg.Validate(); err != nil {
		return nil, err
	}
	red := reduce(sg)
	plan := &Plan{
		Problem:    p,
		Sequencing: sg,
		Reduction:  red,
		Feasible:   red.Feasible(),
	}
	if !plan.Feasible {
		return plan, nil
	}
	if err := plan.schedule(); err != nil {
		return nil, fmt.Errorf("core: scheduling feasible reduction: %w", err)
	}
	return plan, nil
}

// schedule turns the reduction trace into the ordered step list by
// replaying it against an asset-tracking execution.
//
// Indemnity collateral is posted lazily, immediately before the first
// deposit on the covered exchange, and — for a self-insured offerer —
// only once delivery of the covered goods is guaranteed (the goods sit in
// an escrow the offerer can reach, or in its own hands): the paper's
// broker offers its indemnity "once it has obtained a promise from the
// seller to deliver its own document". Covered deposits whose collateral
// cannot be posted yet are blocked and retried after later events.
func (p *Plan) schedule() error {
	exec := safety.NewExec(p.Problem)
	t := p.Problem.ActionTable()
	var steps []Step
	posted := make([]bool, len(p.Problem.Indemnities))
	// postedVias accumulates the Via components of collateral posted
	// since the last drain; a post action can coincide with a deposit
	// action at the Via, so those components may have become ready.
	var postedVias []int32 // party slots

	remaining := make(map[int]int, len(p.Sequencing.Commitments))
	redAt := make(map[int]bool)
	for _, c := range p.Sequencing.Commitments {
		remaining[c.ID] = len(p.Sequencing.EdgesAtCommitment(c.ID))
	}
	for _, e := range p.Sequencing.Edges {
		if e.Red {
			redAt[e.ID.C] = true
		}
	}

	var deferred []int
	var blocked []int

	// Notifications correspond to Rule #2 removals at trusted
	// conjunctions, but a trusted component can only truthfully notify
	// once it physically holds the other side (the paper's "Trusted2 can
	// notify the broker that it has the document"). When commits are
	// delayed (blocked collateral, red deferral), the notify waits for
	// the counterpart deposits.
	type pendingNotify struct {
		trusted, target model.PartyID
		commit          int   // the notified party's own exchange at the trusted
		requires        []int // exchange indices that must be deposited
	}
	var notifies []pendingNotify
	flushNotifies := func() error {
		for i := 0; i < len(notifies); {
			pn := notifies[i]
			// A notification tells a principal "the other side is in
			// place; your move". If the principal's own side is already
			// in escrow by the time the counterpart arrives, the trusted
			// component simply completes — no notification exists
			// physically, so none is planned.
			if exec.Deposited(pn.commit) {
				notifies = append(notifies[:i], notifies[i+1:]...)
				continue
			}
			ok := true
			for _, ei := range pn.requires {
				if !exec.Deposited(ei) {
					ok = false
					break
				}
			}
			if !ok {
				i++
				continue
			}
			// The notify a Rule #2 removal at the trusted conjunction
			// plans is the one the commitment's exchange defines: its
			// trusted component is the conjunction's agent.
			n := t.Notify(pn.commit)
			if err := exec.ApplySlot(int(n)); err != nil {
				return fmt.Errorf("notify from %s: %w", pn.trusted, err)
			}
			steps = append(steps, Step{
				Kind: StepNotify,
				From: pn.trusted, To: pn.target,
				Slots: []int32{n},
			})
			notifies = append(notifies[:i], notifies[i+1:]...)
			i = 0 // restart: order within pending set is by eligibility
		}
		return nil
	}

	// collateralReady reports whether every unposted offer covering ci can
	// be posted now; postCollateral posts them.
	collateralReady := func(ci int) bool {
		for oi, off := range p.Problem.Indemnities {
			if posted[oi] || off.Covers != ci {
				continue
			}
			if t.SelfInsured(oi) && !canGuaranteeDelivery(exec, off) {
				return false
			}
		}
		return true
	}
	postCollateral := func(ci int) error {
		for oi, off := range p.Problem.Indemnities {
			if posted[oi] || off.Covers != ci {
				continue
			}
			if err := exec.Post(oi); err != nil {
				return fmt.Errorf("posting indemnity %d: %w", oi, err)
			}
			posted[oi] = true
			_, via := t.Parties(int(t.Post[oi]))
			postedVias = append(postedVias, via)
			steps = append(steps, Step{
				Kind: StepIndemnityPost, Offer: oi,
				From: off.By, To: off.Via,
				Slots: []int32{t.Post[oi]},
			})
		}
		return nil
	}

	deposit := func(ci int) error {
		e := p.Problem.Exchanges[ci]
		slots := t.Deposits(ci)
		if len(slots) == 0 {
			return nil
		}
		if err := exec.ApplyDeposits(ci); err != nil {
			return fmt.Errorf("deposit for exchange %d: %w", ci, err)
		}
		steps = append(steps, Step{
			Kind: StepDeposit, Exchange: ci,
			From: e.Principal, To: e.Trusted,
			Slots: slots,
		})
		return nil
	}
	// drain delivers every undelivered exchange at each listed trusted
	// component that holds all its deposits, visiting components in
	// roster order. Deliveries only ever apply receipt actions, never
	// deposits, so delivering at one component cannot make another
	// ready: a single pass over the candidates reaches the fixpoint.
	// Only the component that just received a deposit — or the Via of a
	// collateral post, whose post action can double as a deposit — can
	// have become ready, so the hot callers pass exactly those instead
	// of sweeping the whole roster on every deposit.
	drain := func(cands []int32) error {
		slices.Sort(cands) // party slots: roster order
		prev := int32(-1)
		for _, tr := range cands {
			if tr == prev {
				continue
			}
			prev = tr
			trusted := p.Problem.Parties[tr].ID
			if !exec.TrustedReady(trusted) {
				continue
			}
			for _, ei := range t.At(int(tr)) {
				if exec.Delivered(int(ei)) {
					continue
				}
				slots := t.Receipts(int(ei))
				if len(slots) == 0 {
					continue
				}
				if err := exec.ApplyReceipts(int(ei)); err != nil {
					return fmt.Errorf("delivery for exchange %d: %w", ei, err)
				}
				steps = append(steps, Step{
					Kind: StepDeliver, Exchange: int(ei),
					From: trusted, To: p.Problem.Exchanges[ei].Principal,
					Slots: slots,
				})
			}
		}
		return nil
	}
	drainAll := func() error { return drain(slices.Clone(t.Trusteds)) }
	// drainAfterDeposit drains at the components the deposit for ci (and
	// any collateral posted with it) could have readied.
	drainAfterDeposit := func(ci int) error {
		hints := append(postedVias, t.Trusted[ci])
		postedVias = nil
		return drain(hints)
	}

	// Persona commitments (the principal plays the trusted role, Section
	// 4.2.3) execute as an early withdrawal — the principal takes the
	// escrowed goods without paying yet ("risk-free access") — and the
	// principal's own deposit is deferred to the end, like a red edge.
	isPersona := func(ci int) bool {
		return p.Sequencing.Commitments[ci].PersonaPrincipal
	}
	personaWithdrawable := exec.TrustedHoldsGets
	withdraw := func(ci int) error {
		e := p.Problem.Exchanges[ci]
		if err := exec.EarlyWithdraw(ci); err != nil {
			return err
		}
		steps = append(steps, Step{
			Kind: StepDeliver, Exchange: ci,
			From: e.Trusted, To: e.Principal,
			Slots: t.Receipts(ci),
		})
		deferred = append(deferred, ci)
		return nil
	}

	ready := func(ci int) bool {
		if isPersona(ci) {
			return personaWithdrawable(ci)
		}
		return collateralReady(ci)
	}
	committedOnce := make(map[int]bool)
	commit := func(ci int) error {
		if !committedOnce[ci] {
			committedOnce[ci] = true
			e := p.Problem.Exchanges[ci]
			steps = append(steps, Step{
				Kind: StepCommit, Exchange: ci,
				From: e.Principal, To: e.Trusted,
			})
		}
		// The persona clause takes precedence over red marking, exactly
		// as it overrides red pre-emption in Rule #1: the principal has
		// risk-free access to the escrowed goods, so it withdraws now and
		// its own deposit is deferred (withdraw handles that).
		if isPersona(ci) {
			if !ready(ci) {
				blocked = append(blocked, ci)
				return nil
			}
			return withdraw(ci)
		}
		if redAt[ci] {
			deferred = append(deferred, ci)
			return nil
		}
		if !ready(ci) {
			blocked = append(blocked, ci)
			return nil
		}
		if err := postCollateral(ci); err != nil {
			return err
		}
		if err := deposit(ci); err != nil {
			return err
		}
		return drainAfterDeposit(ci)
	}
	retryBlocked := func() error {
		for {
			progressed := false
			for i, ci := range blocked {
				if !ready(ci) {
					continue
				}
				blocked = append(blocked[:i], blocked[i+1:]...)
				if err := commit(ci); err != nil {
					return err
				}
				progressed = true
				break
			}
			if !progressed {
				return nil
			}
		}
	}

	// Commitments that start with no edges commit immediately.
	for _, c := range p.Sequencing.Commitments {
		if remaining[c.ID] == 0 {
			if err := commit(c.ID); err != nil {
				return err
			}
		}
	}

	for _, rm := range p.Reduction.Removals {
		ci, ji := rm.Edge.ID.C, rm.Edge.ID.J
		conj := p.Sequencing.Conjunctions[ji]
		if rm.Rule == sequencing.Rule2 && conj.TrustedAgent {
			target := p.Sequencing.Commitments[ci].Principal
			var requires []int
			k, _ := t.PartySlot(conj.Agent)
			for _, ei := range t.At(k) {
				if int(ei) != ci {
					requires = append(requires, int(ei))
				}
			}
			notifies = append(notifies, pendingNotify{trusted: conj.Agent, target: target, commit: ci, requires: requires})
		}
		// The notification precedes the commitment it enables: a Rule #2
		// removal means the trusted component tells the remaining party
		// that the other side is in place, and only then does that party
		// commit (Section 5's step ordering).
		if err := flushNotifies(); err != nil {
			return err
		}
		remaining[ci]--
		if remaining[ci] == 0 {
			if err := commit(ci); err != nil {
				return err
			}
		}
		if err := flushNotifies(); err != nil {
			return err
		}
		if err := retryBlocked(); err != nil {
			return err
		}
		if err := flushNotifies(); err != nil {
			return err
		}
	}
	if err := retryBlocked(); err != nil {
		return err
	}
	if err := flushNotifies(); err != nil {
		return err
	}

	// Red-edge commitments were committed in disconnect order but execute
	// last (Section 5). Deposits may depend on deliveries from other
	// deferred commitments (resale chains), and blocked commitments
	// (persona withdrawals waiting for escrowed goods, collateral waiting
	// on a guarantee) may only unblock once deferred deposits land — so
	// both pools drain together until quiescent.
	for len(deferred) > 0 || len(blocked) > 0 {
		progressed := false
		beforeBlocked := len(blocked)
		if err := retryBlocked(); err != nil {
			return err
		}
		if err := flushNotifies(); err != nil {
			return err
		}
		if len(blocked) < beforeBlocked {
			progressed = true
		}
		for i, ci := range deferred {
			if !exec.HoldsGives(ci) || !collateralReady(ci) {
				continue
			}
			if err := postCollateral(ci); err != nil {
				return err
			}
			if err := deposit(ci); err != nil {
				return err
			}
			if err := drainAfterDeposit(ci); err != nil {
				return err
			}
			if err := flushNotifies(); err != nil {
				return err
			}
			deferred = append(deferred[:i], deferred[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return fmt.Errorf("stuck schedule: deferred %v cannot be funded, blocked %v cannot be unblocked",
				deferred, blocked)
		}
	}
	if err := drainAll(); err != nil {
		return err
	}

	// Happy path: every posted indemnity is refunded once the exchange
	// completes.
	for oi, off := range p.Problem.Indemnities {
		if !posted[oi] {
			continue
		}
		refund := t.Post[oi] + int32(t.Transfers) // the post's compensation
		if err := exec.ApplySlot(int(refund)); err != nil {
			return fmt.Errorf("refunding indemnity %d: %w", oi, err)
		}
		steps = append(steps, Step{
			Kind: StepIndemnityRefund, Offer: oi,
			From: off.Via, To: off.By,
			Slots: []int32{refund},
		})
	}

	if err := flushNotifies(); err != nil {
		return err
	}
	for _, pn := range notifies {
		// Leftovers whose target deposited through another path are
		// physically silent; anything else is a scheduling bug.
		if !exec.Deposited(pn.commit) {
			return fmt.Errorf("notification from %s to %s never became sendable", pn.trusted, pn.target)
		}
	}
	if !safety.Completed(exec) {
		return fmt.Errorf("schedule finished without completing every exchange")
	}
	p.Steps = steps
	return nil
}

// canGuaranteeDelivery reports whether a self-insured offerer is assured
// of obtaining the covered goods: each promised item is already in the
// offerer's hands or sits in the escrow of a trusted component from which
// the offerer has a purchase exchange for that item.
func canGuaranteeDelivery(exec *safety.Exec, off model.IndemnityOffer) bool {
	cov := exec.Problem.Exchanges[off.Covers]
	t := exec.Problem.ActionTable()
	var own []int32 // the offerer's own exchanges
	if by, ok := t.PartySlot(off.By); ok {
		own = t.Own(by)
	}
	for _, it := range cov.Gets.Items {
		if exec.ItemCount(off.By, it) > 0 {
			continue
		}
		ok := false
		for _, ei := range own {
			e := exec.Problem.Exchanges[ei]
			if !e.Gets.HasItem(it) {
				continue
			}
			if exec.ItemCount(e.Trusted, it) > 0 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Verify replays the plan and checks the guarantees the paper promises
// for feasible exchanges:
//
//   - every transfer is funded when performed;
//   - after every step, every principal's assets remain safe
//     (safety.AssetSafe): even if every other principal stops, each
//     pairwise exchange individually ends untouched, refunded or
//     completed, with indemnity collateral settling per Section 6 — the
//     paper's "no participant ever risks losing money or goods without
//     receiving everything promised in exchange". Conjunction
//     (all-or-nothing) preferences are negotiation-level constraints
//     enforced by the commit order and checked on the final state;
//   - the final state completes every exchange, is acceptable to every
//     principal, and leaves every trusted component neutral.
func (p *Plan) Verify() error {
	if !p.Feasible {
		return ErrInfeasible
	}
	exec := safety.NewExec(p.Problem)
	for si, st := range p.Steps {
		for _, s := range st.Slots {
			if err := exec.ApplySlot(int(s)); err != nil {
				return fmt.Errorf("core: step %d (%v): %w", si, st, err)
			}
		}
		for _, pa := range p.Problem.Parties {
			if pa.IsTrusted() {
				continue
			}
			if !safety.AssetSafe(exec, pa.ID) {
				return fmt.Errorf("core: step %d (%v) leaves %s's assets at risk", si, st, pa.ID)
			}
		}
	}
	if !safety.Completed(exec) {
		return fmt.Errorf("core: plan does not complete every exchange")
	}
	final := exec.Snapshot()
	for _, pa := range p.Problem.Parties {
		if pa.IsTrusted() {
			if !model.TrustedNeutral(final, pa.ID) {
				return fmt.Errorf("core: trusted component %s not neutral at the end", pa.ID)
			}
			continue
		}
		if !model.Acceptable(pa.ID, final) {
			return fmt.Errorf("core: final state unacceptable to %s", pa.ID)
		}
	}
	return p.CheckConstraints()
}

// CheckConstraints verifies the plan's action order against the
// problem's explicit ordering constraints (Section 2.4): for each
// constraint, if the After action occurs in the plan, the Before action
// must occur earlier. Constraints whose After action never occurs are
// vacuously satisfied; an action the problem does not define never
// occurs. A step slot outside the action table is an error.
func (p *Plan) CheckConstraints() error {
	if !p.Feasible {
		return ErrInfeasible
	}
	if len(p.Problem.Constraints) == 0 {
		return nil
	}
	t := p.Problem.ActionTable()
	position := make([]int, t.Len()) // first position + 1 of each slot; 0 if absent
	idx := 0
	for si, st := range p.Steps {
		for _, s := range st.Slots {
			if s < 0 || int(s) >= len(position) {
				return fmt.Errorf("core: step %d (%v): %w: %d", si, st, safety.ErrUnknownSlot, s)
			}
			idx++
			if position[s] == 0 {
				position[s] = idx
			}
		}
	}
	at := func(a model.Action) (int, bool) {
		if s, ok := t.Slot(a); ok && position[s] > 0 {
			return position[s] - 1, true
		}
		return 0, false
	}
	for _, c := range p.Problem.Constraints {
		after, ok := at(c.After)
		if !ok {
			continue
		}
		before, ok := at(c.Before)
		if !ok {
			return fmt.Errorf("core: constraint %v: the later action occurs but the earlier one never does", c)
		}
		if before > after {
			return fmt.Errorf("core: constraint %v violated: %v at step position %d precedes %v at %d",
				c, c.After, after, c.Before, before)
		}
	}
	return nil
}

// ActionSteps returns the steps that move assets or information —
// everything except the commit markers. This is the paper's Section 5
// numbered list.
func (p *Plan) ActionSteps() []Step {
	var out []Step
	for _, st := range p.Steps {
		if st.Kind != StepCommit {
			out = append(out, st)
		}
	}
	return out
}

// ExecutionSequence renders the numbered step list in the style of the
// Section 5 walkthrough. Commit points are shown as unnumbered
// annotations between the action steps.
func (p *Plan) ExecutionSequence() string {
	if !p.Feasible {
		return "infeasible: no execution sequence\n" + p.Reduction.Impasse()
	}
	var b strings.Builder
	n := 0
	for _, st := range p.Steps {
		if st.Kind == StepCommit {
			fmt.Fprintf(&b, "    — %s\n", describeStep(p.Problem, st))
			continue
		}
		n++
		fmt.Fprintf(&b, "%2d. %s\n", n, describeStep(p.Problem, st))
	}
	return b.String()
}

func describeStep(pr *model.Compiled, st Step) string {
	switch st.Kind {
	case StepDeposit:
		e := pr.Exchanges[st.Exchange]
		return fmt.Sprintf("%s sends %s to %s", e.Principal, e.Gives, e.Trusted)
	case StepDeliver:
		e := pr.Exchanges[st.Exchange]
		return fmt.Sprintf("%s sends %s to %s", e.Trusted, e.Gets, e.Principal)
	case StepNotify:
		return fmt.Sprintf("%s notifies %s", st.From, st.To)
	case StepIndemnityPost:
		return fmt.Sprintf("%s posts %s indemnity with %s", st.From, pr.ActionTable().Collateral(st.Offer), st.To)
	case StepIndemnityRefund:
		return fmt.Sprintf("%s refunds indemnity to %s", st.From, st.To)
	default:
		return st.String()
	}
}
