package sim

import (
	"fmt"
	"strconv"
	"strings"

	"trustseq/internal/core"
	"trustseq/internal/model"
)

// TrustedNode implements the Section 2.5 trusted-component guarantee:
// hold deposits in escrow, notify the counterpart when one side is whole,
// complete (forward everything) when every adjacent exchange is whole,
// and unwind (refund) whatever is held when a deadline expires first.
// Indemnity collateral held at this node settles per Section 6.
//
// Honest is false when the component is a persona played by a defecting
// principal: the node then absorbs everything and never completes nor
// refunds — the exact risk a direct-trust declaration accepts.
type TrustedNode struct {
	Problem  *model.Problem
	Self     model.PartyID
	Deadline Time
	Honest   bool
	// PersonaOwner, when set, is the principal playing this trusted role.
	// An honest persona forwards the owner's goods early (Section 4.2.3's
	// risk-free access).
	PersonaOwner model.PartyID

	adjacent []int // exchange indices mediated here

	// Volatile working state, lost on a crash and rebuilt from the wal.
	// The containers are slab-style (see arena.go): zero-value-ready,
	// reset in place, no per-node map allocations.
	received  actionSet
	refunded  actionSet
	delivered flagSet
	aborted   bool
	// deadlineAt is the earliest armed escrow expiry (0 = unarmed); a
	// recovering node re-arms it, or unwinds immediately if it passed
	// while the node was down.
	deadlineAt Time

	collateral flagSet // offer index -> currently held
	settled    flagSet // offer index -> refunded or paid out

	// wal is the durable escrow log: every state mutation is appended
	// before it is applied, so Restore can rebuild the exact pre-crash
	// state by replay. (The in-flight ledger is the network's problem;
	// the wal covers only this node's decisions.)
	wal []walEntry
}

var _ Node = (*TrustedNode)(nil)
var _ Recoverable = (*TrustedNode)(nil)

// walOp enumerates the durable log record types.
type walOp int

const (
	walReceived walOp = iota + 1
	walRefunded
	walDelivered
	walUndelivered
	walAborted
	walCollateral
	walSettled
	walDeadline
)

// walEntry is one durable log record. Action is set for walReceived and
// walRefunded, idx for the exchange/offer records, at for walDeadline
// (the absolute expiry tick).
type walEntry struct {
	op     walOp
	action model.Action
	idx    int
	at     Time
}

// logApply appends a record to the durable log, then applies it to the
// volatile state. All trusted-node mutations flow through here so a
// crash can never observe a half-recorded decision (the simulator only
// crashes nodes between messages).
func (n *TrustedNode) logApply(e walEntry) {
	n.wal = append(n.wal, e)
	n.apply(e)
}

// apply mutates the volatile state per one log record.
func (n *TrustedNode) apply(e walEntry) {
	switch e.op {
	case walReceived:
		n.received.add(e.action)
	case walRefunded:
		n.refunded.add(e.action)
	case walDelivered:
		n.delivered.set(e.idx, true)
	case walUndelivered:
		n.delivered.set(e.idx, false)
	case walAborted:
		n.aborted = true
	case walCollateral:
		n.collateral.set(e.idx, true)
	case walSettled:
		n.settled.set(e.idx, true)
	case walDeadline:
		if n.deadlineAt == 0 || e.at < n.deadlineAt {
			n.deadlineAt = e.at
		}
	}
}

// armDeadline records and schedules an escrow expiry Deadline ticks out.
func (n *TrustedNode) armDeadline(ctx *Context, tag string) {
	n.logApply(walEntry{op: walDeadline, at: ctx.Now() + n.Deadline})
	ctx.SetTimer(n.Deadline, tag)
}

// Crash implements Recoverable: volatile state is lost; the wal (and
// the node's configuration) survives.
func (n *TrustedNode) Crash() {
	n.received.reset()
	n.refunded.reset()
	n.delivered.reset()
	n.collateral.reset()
	n.settled.reset()
	n.aborted = false
	n.deadlineAt = 0
}

// Restore implements Recoverable: replay the durable log, then run the
// recovery protocol — re-arm the escrow clock (or unwind with
// compensations immediately if it expired during the outage), resume an
// interrupted unwind, and retry any completion that was in flight.
func (n *TrustedNode) Restore(ctx *Context) {
	for _, e := range n.wal {
		n.apply(e)
	}
	if !n.Honest {
		return // the corrupted persona absorbs; it runs no recovery
	}
	if n.deadlineAt != 0 && !n.aborted {
		if ctx.Now() >= n.deadlineAt {
			n.onDeadline(ctx)
		} else {
			ctx.SetTimer(n.deadlineAt-ctx.Now(), "deadline:recovered")
		}
	}
	if n.aborted {
		n.retryRefunds(ctx)
		return
	}
	n.maybeForwardPersona(ctx)
	n.maybeComplete(ctx)
}

// NewTrustedNode builds the node for one trusted component.
func NewTrustedNode(p *model.Problem, self model.PartyID, deadline Time, honest bool) *TrustedNode {
	n := &TrustedNode{
		Problem:  p,
		Self:     self,
		Deadline: deadline,
		Honest:   honest,
	}
	deposits := 0
	for _, ei := range p.ExchangesOf(self) {
		if e := p.Exchanges[ei]; e.Trusted == self {
			n.adjacent = append(n.adjacent, ei)
			deposits += len(e.Gives.Items)
			if e.Gives.Amount > 0 {
				deposits++
			}
		}
	}
	// The honest protocol logs one receipt per deposit, one delivery
	// per adjacent exchange and one deadline.
	n.received.reserve(deposits)
	n.wal = make([]walEntry, 0, deposits+len(n.adjacent)+1)
	if q, ok := p.PersonaOf(self); ok {
		n.PersonaOwner = q
	}
	return n
}

// ID implements Node.
func (n *TrustedNode) ID() model.PartyID { return n.Self }

// Init implements Node.
func (n *TrustedNode) Init(*Context) {}

// OnMessage implements Node.
func (n *TrustedNode) OnMessage(ctx *Context, m Message) {
	if !n.Honest {
		return // absorb silently: the defecting trustee
	}
	switch m.Kind {
	case MsgTimer:
		if strings.HasPrefix(m.Tag, "deadline") {
			n.onDeadline(ctx)
		}
	case MsgTransfer:
		n.onTransfer(ctx, m.Action)
	case MsgNotify:
		// Trusted components ignore notifications.
	}
}

func (n *TrustedNode) onTransfer(ctx *Context, a model.Action) {
	// Returned goods: the compensation of a receipt this node forwarded
	// (a persona owner answering a recall). Un-deliver and retry refunds.
	if a.Inverse {
		for _, ei := range n.adjacent {
			for _, r := range model.ReceiptActions(n.Problem.Exchanges[ei]) {
				if r.Compensation() == a && n.delivered.get(ei) {
					n.logApply(walEntry{op: walUndelivered, idx: ei})
					n.retryRefunds(ctx)
					return
				}
			}
		}
		return // other inverses (stray refunds) are final
	}
	if oi, ok := n.matchCollateral(a); ok {
		n.logApply(walEntry{op: walCollateral, idx: oi})
		n.logApply(walEntry{op: walReceived, action: a})
		if n.aborted {
			// Collateral delayed past the unwind (a partition or spike
			// held it in transit): settle it immediately under the
			// deadline rule instead of absorbing it.
			n.settleOffer(ctx, oi, n.Problem.Indemnities[oi])
			return
		}
		n.armDeadline(ctx, "deadline:collateral")
		// Confirm the indemnity account to the protected principal: its
		// split-dependent deposits wait for this (Section 6 — the
		// customer treats the transfers as separate transactions only
		// once the collateral exists).
		off := n.Problem.Indemnities[oi]
		ctx.SendTagged(n.Problem.Exchanges[off.Covers].Principal, "posted:"+strconv.Itoa(oi))
		return
	}
	ei, ok := n.matchDeposit(a)
	if !ok {
		// Unsolicited transfer: return it.
		n.refundAction(ctx, a)
		return
	}
	if n.aborted {
		if n.delivered.get(ei) {
			// A persona owner settling its withdrawal with payment after
			// the unwind: accept and finish the counterpart sides.
			n.logApply(walEntry{op: walReceived, action: a})
			n.settleAfterAbort(ctx)
			return
		}
		// Late deposit to an unwound exchange: bounce it.
		n.refundAction(ctx, a)
		return
	}
	first := !n.anyDepositReceived()
	n.logApply(walEntry{op: walReceived, action: a})
	if first {
		n.armDeadline(ctx, "deadline:"+strconv.Itoa(ei))
	}
	if n.exchangeWhole(ei) {
		// Notify the principals of the still-missing sides.
		for _, ej := range n.adjacent {
			if ej != ei && !n.exchangeWhole(ej) {
				ctx.SendNotify(n.Problem.Exchanges[ej].Principal)
			}
		}
	}
	n.maybeForwardPersona(ctx)
	n.maybeComplete(ctx)
}

// retryRefunds refunds held, unrefunded deposits of undelivered
// exchanges during an unwind, as returned assets make them fundable.
func (n *TrustedNode) retryRefunds(ctx *Context) {
	for _, ei := range n.adjacent {
		if n.delivered.get(ei) {
			continue
		}
		for _, d := range model.DepositActions(n.Problem.Exchanges[ei]) {
			if n.received.has(d) && !n.refunded.has(d) {
				if err := ctx.SendTransfer(d.Compensation()); err == nil {
					n.logApply(walEntry{op: walRefunded, action: d})
				}
			}
		}
	}
}

// settleAfterAbort completes counterpart sides once a withdrawn persona
// exchange has been paid for after the deadline.
func (n *TrustedNode) settleAfterAbort(ctx *Context) {
	for _, ei := range n.adjacent {
		if !n.exchangeWhole(ei) {
			return
		}
	}
	for _, ei := range n.adjacent {
		if n.delivered.get(ei) {
			continue
		}
		allSent := true
		for _, r := range model.ReceiptActions(n.Problem.Exchanges[ei]) {
			if err := ctx.SendTransfer(r); err != nil {
				allSent = false
			}
		}
		if allSent {
			n.logApply(walEntry{op: walDelivered, idx: ei})
		}
	}
}

// maybeForwardPersona implements the honest persona's early forwarding:
// the owner may take goods destined for it before paying.
func (n *TrustedNode) maybeForwardPersona(ctx *Context) {
	if n.PersonaOwner == "" {
		return
	}
	for _, ei := range n.adjacent {
		e := n.Problem.Exchanges[ei]
		if e.Principal != n.PersonaOwner || n.delivered.get(ei) {
			continue
		}
		// Forward when every item of the owner's Gets has arrived from
		// the counterpart side.
		ready := true
		for _, r := range model.ReceiptActions(e) {
			if r.Kind == model.ActionGive && !n.holdsItem(r.Item) {
				ready = false
			}
		}
		if !ready {
			continue
		}
		n.logApply(walEntry{op: walDelivered, idx: ei})
		for _, r := range model.ReceiptActions(e) {
			if err := ctx.SendTransfer(r); err != nil {
				n.logApply(walEntry{op: walUndelivered, idx: ei})
				return
			}
		}
	}
}

func (n *TrustedNode) holdsItem(item model.ItemID) bool {
	for _, a := range n.received.keys {
		if a.Kind == model.ActionGive && a.Item == item && !n.refunded.has(a) {
			return true
		}
	}
	return false
}

func (n *TrustedNode) maybeComplete(ctx *Context) {
	for _, ei := range n.adjacent {
		if !n.exchangeWhole(ei) {
			return
		}
	}
	for _, ei := range n.adjacent {
		if n.delivered.get(ei) {
			continue
		}
		n.logApply(walEntry{op: walDelivered, idx: ei})
		for _, r := range model.ReceiptActions(n.Problem.Exchanges[ei]) {
			if err := ctx.SendTransfer(r); err != nil {
				// Completion failure indicates a runner bug; surface via
				// the runner's fault channel through a refund.
				n.logApply(walEntry{op: walUndelivered, idx: ei})
				return
			}
		}
	}
	// Everything delivered: refund live collateral to its offerers.
	for oi, off := range n.Problem.Indemnities {
		if off.Via != n.Self || !n.collateral.get(oi) || n.settled.get(oi) {
			continue
		}
		n.logApply(walEntry{op: walSettled, idx: oi})
		post := model.Pay(off.By, n.Self, n.offerAmount(off))
		_ = ctx.SendTransfer(post.Compensation())
	}
}

func (n *TrustedNode) onDeadline(ctx *Context) {
	if n.aborted {
		return
	}
	complete := true
	for _, ei := range n.adjacent {
		if !n.delivered.get(ei) {
			complete = false
		}
	}
	if complete {
		return
	}
	n.logApply(walEntry{op: walAborted})
	// Settle collateral first: a covered, attempted, undelivered exchange
	// forfeits the collateral to the protected principal.
	for oi, off := range n.Problem.Indemnities {
		if off.Via != n.Self || !n.collateral.get(oi) || n.settled.get(oi) {
			continue
		}
		n.settleOffer(ctx, oi, off)
	}
	// Refund every held, undelivered deposit the node can still fund.
	n.retryRefunds(ctx)
	// Withdrawn-but-unpaid persona exchanges: demand return or payment.
	for _, ei := range n.adjacent {
		e := n.Problem.Exchanges[ei]
		if e.Principal == n.PersonaOwner && n.delivered.get(ei) && !n.exchangeWhole(ei) {
			ctx.SendTagged(n.PersonaOwner, "recall:"+strconv.Itoa(ei))
		}
	}
}

// settleOffer resolves one held collateral account under the deadline
// rule: a covered, attempted, undelivered exchange forfeits the
// collateral to the protected principal; otherwise it is refunded to
// the offerer. Called from onDeadline for each held offer, and from the
// transfer handler when collateral arrives after the unwind already ran.
func (n *TrustedNode) settleOffer(ctx *Context, oi int, off model.IndemnityOffer) {
	n.logApply(walEntry{op: walSettled, idx: oi})
	amount := n.offerAmount(off)
	if n.allDeposits(off.Covers, n.received.has) && !n.delivered.get(off.Covers) {
		_ = ctx.SendTransfer(model.Pay(n.Self, n.Problem.Exchanges[off.Covers].Principal, amount))
		return
	}
	post := model.Pay(off.By, n.Self, amount)
	_ = ctx.SendTransfer(post.Compensation())
}

func (n *TrustedNode) offerAmount(off model.IndemnityOffer) model.Money {
	if off.Amount != 0 {
		return off.Amount
	}
	return model.RequiredIndemnity(n.Problem, off.Covers)
}

func (n *TrustedNode) anyDepositReceived() bool {
	for _, a := range n.received.keys {
		if a.Kind != model.ActionNotify {
			return true
		}
	}
	return false
}

func (n *TrustedNode) exchangeWhole(ei int) bool {
	return n.allDeposits(ei, func(d model.Action) bool {
		return n.received.has(d) && !n.refunded.has(d)
	})
}

func (n *TrustedNode) matchDeposit(a model.Action) (int, bool) {
	for _, ei := range n.adjacent {
		// a is one of ei's deposits unless every deposit differs from it.
		if !n.allDeposits(ei, func(d model.Action) bool { return d != a }) {
			return ei, true
		}
	}
	return 0, false
}

// allDeposits reports whether ok holds for every deposit of exchange
// ei, walking the Gives bundle in place: membership needs no sorted,
// freshly allocated DepositActions slice.
func (n *TrustedNode) allDeposits(ei int, ok func(model.Action) bool) bool {
	e := n.Problem.Exchanges[ei]
	if e.Gives.Amount > 0 && !ok(model.Pay(e.Principal, e.Trusted, e.Gives.Amount)) {
		return false
	}
	for _, it := range e.Gives.Items {
		if !ok(model.Give(e.Principal, e.Trusted, it)) {
			return false
		}
	}
	return true
}

func (n *TrustedNode) matchCollateral(a model.Action) (int, bool) {
	for oi, off := range n.Problem.Indemnities {
		if off.Via != n.Self {
			continue
		}
		if model.Pay(off.By, n.Self, n.offerAmount(off)) == a {
			return oi, true
		}
	}
	return 0, false
}

func (n *TrustedNode) refundAction(ctx *Context, a model.Action) {
	if !a.IsTransfer() || a.Inverse {
		return
	}
	_ = ctx.SendTransfer(a.Compensation())
}

// PrincipalNode executes one principal's slice of a synthesized plan.
// Its script is the ordered list of the principal's own action steps;
// each step waits for the notifications and deliveries addressed to the
// principal that precede it in the plan (the causal prerequisites), then
// fires.
//
// StopAfter bounds the number of script steps performed: a value < 0
// means honest (no bound); 0 is a fully silent defector; k > 0 defects
// after k steps.
type PrincipalNode struct {
	Problem   *model.Problem
	Self      model.PartyID
	StopAfter int

	script []scriptStep
	next   int
	// waited counts the leading waitFor entries of script[next] seen.
	// seen only grows and each step's waitFor extends the last one's, so
	// tryFire checks each wait once per run. Not checkpointed: a
	// restored node re-derives it from 0.
	waited int
	seen   actionSet
	// seenTags is allocated lazily: tagged control messages only flow
	// on the indemnity and recall paths, so most principals never pay
	// for the map.
	seenTags map[string]bool
	fired    int
	faults   []error
	recalls  []*recallState
	// sent records every transfer this node successfully sent; recall
	// settlement consults it so a deposit the script already paid is not
	// paid again (and makes the recall moot — the owner's side is
	// settled).
	sent actionSet
}

// markTag records a seen control tag, allocating the map on first use.
func (n *PrincipalNode) markTag(tag string) {
	if n.seenTags == nil {
		n.seenTags = make(map[string]bool, 4)
	}
	n.seenTags[tag] = true
}

// sawTag reports whether a control tag has been seen.
func (n *PrincipalNode) sawTag(tag string) bool { return n.seenTags[tag] }

// recallState tracks one unwind demand from a persona trustee until the
// owner settles it. Settlement may not be immediately fundable under
// chaos — the goods or funds can sit in another escrow in flight — so
// the node re-attempts on every subsequent delivery instead of giving
// up. Once the first transfer of a path succeeds the state commits to
// that path (returning or paying); retries then only send the
// remainder, never both sides.
type recallState struct {
	ei   int
	mode recallMode
	sent map[model.Action]bool
	done bool
}

type recallMode int

const (
	recallUndecided recallMode = iota
	recallReturning
	recallPaying
)

var _ Node = (*PrincipalNode)(nil)

type scriptStep struct {
	actions []model.Action
	// waitFor are actions addressed to this principal that must have
	// been observed before the step fires.
	waitFor []model.Action
	// waitTags are control confirmations (collateral postings) that must
	// have been observed.
	waitTags []string
	// waitAny holds groups of alternatives: for each group, at least one
	// of its actions must have been observed (e.g. "the wholesale
	// intermediary notified me" OR "it already delivered the item").
	waitAny [][]model.Action
}

// snapshotPrefix freezes the current contents of an append-only slice
// without copying: the capacity cap makes the snapshot un-appendable,
// and since the source only ever grows past its current length, the
// shared prefix is immutable. The script builder leans on this — a
// population producer observes thousands of actions across its steps,
// and copying each step's cumulative prefix was the single largest
// allocation in a large-population setup (~24 KB per principal).
func snapshotPrefix[T any](s []T) []T {
	return s[:len(s):len(s)]
}

// BuildPrincipalNodes derives the script of every principal in one
// pass over plan.Steps: each principal accumulates the actions and
// control tags addressed to it in step order, and snapshots that
// prefix as the wait set of each of its own deposit/post steps. Doing
// all principals in a single pass turns an O(principals × steps)
// build — quadratic at population scale, since steps grow with
// principals — into O(steps × step fan-out).
//
// defectors maps principals to their StopAfter bound; absent
// principals are honest (StopAfter -1).
func BuildPrincipalNodes(plan *core.Plan, defectors map[model.PartyID]int) []*PrincipalNode {
	p := plan.Problem
	idx := make(map[model.PartyID]int32, len(p.Parties))
	nodes := make([]*PrincipalNode, 0, len(p.Parties))
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			continue
		}
		stop := -1
		if k, ok := defectors[pa.ID]; ok {
			stop = k
		}
		idx[pa.ID] = int32(len(nodes))
		nodes = append(nodes, &PrincipalNode{Problem: p, Self: pa.ID, StopAfter: stop})
	}
	observed := make([][]model.Action, len(nodes))
	observedTags := make([][]string, len(nodes))
	for _, st := range plan.Steps {
		switch st.Kind {
		case core.StepNotify, core.StepDeliver, core.StepIndemnityRefund:
			for _, a := range st.Actions {
				recv := a.Receiver()
				if i, ok := idx[recv]; ok {
					observed[i] = append(observed[i], a)
				}
				// A notify can address a party distinct from the asset
				// receiver; both observe it (once, when they coincide).
				if a.Kind == model.ActionNotify && a.To != recv {
					if i, ok := idx[a.To]; ok {
						observed[i] = append(observed[i], a)
					}
				}
			}
		case core.StepIndemnityPost:
			off := p.Indemnities[st.Offer]
			if i, ok := idx[p.Exchanges[off.Covers].Principal]; ok {
				observedTags[i] = append(observedTags[i], "posted:"+strconv.Itoa(st.Offer))
			}
			i, ok := idx[st.From]
			if !ok {
				continue
			}
			// A self-insured offerer posts only once it observes that the
			// covered goods are secured ("once it has obtained a promise
			// from the seller", Section 6): for each covered item, either
			// the wholesale intermediary's notification or the item's
			// actual delivery.
			var anyOf [][]model.Action
			if model.SelfInsured(p, off) {
				anyOf = securingSignals(p, st.From, off)
			}
			// The plan is immutable, so a step shares its actions.
			nodes[i].script = append(nodes[i].script, scriptStep{
				actions:  snapshotPrefix(st.Actions),
				waitFor:  snapshotPrefix(observed[i]),
				waitTags: snapshotPrefix(observedTags[i]),
				waitAny:  anyOf,
			})
		case core.StepDeposit:
			i, ok := idx[st.From]
			if !ok {
				continue
			}
			nodes[i].script = append(nodes[i].script, scriptStep{
				actions:  snapshotPrefix(st.Actions),
				waitFor:  snapshotPrefix(observed[i]),
				waitTags: snapshotPrefix(observedTags[i]),
			})
		}
	}
	// A principal sees what the plan addresses to it and sends its
	// script's actions: size both sets for that.
	for i, n := range nodes {
		n.seen.reserve(len(observed[i]))
		sends := 0
		for _, st := range n.script {
			sends += len(st.actions)
		}
		n.sent.reserve(sends)
	}
	return nodes
}

// securingSignals returns, per covered item, the alternative
// observations that tell the offerer the item is secured: the notify
// from the trusted component of the offerer's purchase exchange for the
// item, or the item's actual delivery to the offerer. Items bought at a
// persona trusted played by the offerer are skipped — it observes its
// own escrow directly.
func securingSignals(p *model.Problem, self model.PartyID, off model.IndemnityOffer) [][]model.Action {
	cov := p.Exchanges[off.Covers]
	var out [][]model.Action
	for _, it := range cov.Gets.Items {
		var alts []model.Action
		for _, ei := range p.ExchangesOf(self) {
			e := p.Exchanges[ei]
			if e.Principal != self || !e.Gets.HasItem(it) {
				continue
			}
			if q, ok := p.PersonaOf(e.Trusted); ok && q == self {
				alts = nil
				break
			}
			alts = append(alts,
				model.Notify(e.Trusted, self),
				model.Give(e.Trusted, self, it),
			)
		}
		if len(alts) > 0 {
			out = append(out, alts)
		}
	}
	return out
}

// ID implements Node.
func (n *PrincipalNode) ID() model.PartyID { return n.Self }

// Init implements Node.
func (n *PrincipalNode) Init(ctx *Context) { n.tryFire(ctx) }

// OnMessage implements Node.
func (n *PrincipalNode) OnMessage(ctx *Context, m Message) {
	if m.Kind == MsgTimer {
		return
	}
	if strings.HasPrefix(m.Tag, "recall:") {
		n.onRecall(ctx, m)
		return
	}
	if m.Tag != "" {
		n.markTag(m.Tag)
	} else {
		n.seen.add(m.Action)
	}
	n.tryFire(ctx)
	n.pumpRecalls(ctx)
}

// onRecall answers a persona trustee's unwind demand: an honest owner
// returns the withdrawn goods if it still holds them, or pays its side
// if it sold them on. A defector (StopAfter reached) ignores the demand
// — the loss lands on the party that declared direct trust.
//
// Handling is idempotent per recall tag: the network may duplicate or
// retry the demand, and answering twice would make an honest owner
// that already returned the goods pay its deposit on top. Settlement
// that cannot be funded yet (the assets are in flight or in another
// escrow) is parked and re-attempted on every later delivery.
func (n *PrincipalNode) onRecall(ctx *Context, m Message) {
	if n.sawTag(m.Tag) {
		return
	}
	n.markTag(m.Tag)
	if n.StopAfter >= 0 && n.fired >= n.StopAfter {
		return
	}
	ei, err := strconv.Atoi(strings.TrimPrefix(m.Tag, "recall:"))
	if err != nil || ei < 0 || ei >= len(n.Problem.Exchanges) {
		return
	}
	if n.Problem.Exchanges[ei].Principal != n.Self {
		return
	}
	rc := &recallState{ei: ei, sent: make(map[model.Action]bool)}
	n.recalls = append(n.recalls, rc)
	n.attemptRecall(ctx, rc)
}

// pumpRecalls re-attempts every unsettled recall; called after each
// delivery, when newly arrived assets may make settlement fundable.
func (n *PrincipalNode) pumpRecalls(ctx *Context) {
	for _, rc := range n.recalls {
		if !rc.done {
			n.attemptRecall(ctx, rc)
		}
	}
}

// attemptRecall advances one recall settlement as far as current
// holdings allow. A recall whose deposits the owner's script already
// paid is moot — the owner's side is settled and the aborted trustee
// forwards or bounces as appropriate. Otherwise the preference order
// matches the honest script: return the withdrawn goods if they can
// still be returned; only when nothing was returnable, pay the owner's
// own side instead.
func (n *PrincipalNode) attemptRecall(ctx *Context, rc *recallState) {
	e := n.Problem.Exchanges[rc.ei]
	deposits := model.DepositActions(e)
	if rc.mode != recallReturning {
		paid := true
		for _, d := range deposits {
			if !n.sent.has(d) && !rc.sent[d] {
				paid = false
			}
		}
		if paid {
			rc.done = true
			return
		}
	}
	if rc.mode == recallUndecided || rc.mode == recallReturning {
		all := true
		for _, r := range model.ReceiptActions(e) {
			c := r.Compensation()
			if rc.sent[c] {
				continue
			}
			if err := ctx.SendTransfer(c); err != nil {
				all = false
				continue
			}
			rc.sent[c] = true
			rc.mode = recallReturning
		}
		if all {
			rc.done = true
			return
		}
		if rc.mode == recallReturning {
			return // committed to returning; retry the remainder later
		}
	}
	all := true
	for _, d := range deposits {
		if rc.sent[d] || n.sent.has(d) {
			continue
		}
		if err := ctx.SendTransfer(d); err != nil {
			all = false
			continue
		}
		rc.sent[d] = true
		rc.mode = recallPaying
	}
	if all {
		rc.done = true
	}
}

// Faults returns protocol errors the node hit (e.g. unfundable steps).
func (n *PrincipalNode) Faults() []error { return n.faults }

func (n *PrincipalNode) tryFire(ctx *Context) {
	for n.next < len(n.script) {
		if n.StopAfter >= 0 && n.fired >= n.StopAfter {
			return // defection point reached
		}
		st := n.script[n.next]
		for ; n.waited < len(st.waitFor); n.waited++ {
			if !n.seen.has(st.waitFor[n.waited]) {
				return
			}
		}
		for _, tag := range st.waitTags {
			if !n.sawTag(tag) {
				return
			}
		}
		for _, alts := range st.waitAny {
			sawOne := false
			for _, a := range alts {
				if n.seen.has(a) {
					sawOne = true
					break
				}
			}
			if !sawOne {
				return
			}
		}
		for _, a := range st.actions {
			if err := ctx.SendTransfer(a); err != nil {
				n.faults = append(n.faults, fmt.Errorf("sim: %s step %d: %w", n.Self, n.next, err))
				return
			}
			n.sent.add(a)
		}
		n.next++
		n.fired++
	}
}
