package sim

import (
	"fmt"
	"slices"
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
//
// The node works in slots of the problem's action table: it matches a
// transfer against its exchanges' deposit and receipt rows and its
// offers' post slots, and sends the slots those rows name.
type TrustedNode struct {
	Problem  *model.Compiled
	Self     model.PartyID
	Deadline Time
	Honest   bool
	// PersonaOwner, when set, is the principal playing this trusted role.
	// An honest persona forwards the owner's goods early (Section 4.2.3's
	// risk-free access).
	PersonaOwner model.PartyID

	t        *model.ActionTable
	self     int32    // Self's party slot
	owner    int32    // PersonaOwner's party slot, -1 when none
	adjacent []int32  // exchanges mediated here: the table's At row
	tags     []string // tags[ei] arms exchange ei's escrow clock: "deadline:<ei>"
	offers   []int32  // indemnity offers whose collateral is posted here

	// Volatile working state, lost on a crash and rebuilt from the wal.
	// The containers are slab-style (see arena.go): zero-value-ready,
	// reset in place, no per-node map allocations.
	received  slotSet
	refunded  slotSet
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

// walEntry is one durable log record. slot is set for walReceived and
// walRefunded (the deposit or collateral transfer), idx for the
// exchange/offer records, at for walDeadline (the absolute expiry
// tick).
type walEntry struct {
	op   walOp
	slot int32
	idx  int32
	at   Time
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
		n.received.add(e.slot)
	case walRefunded:
		n.refunded.add(e.slot)
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
func NewTrustedNode(p *model.Compiled, self model.PartyID, deadline Time, honest bool) *TrustedNode {
	t := p.ActionTable()
	var n *TrustedNode
	if i, ok := t.PartySlot(self); ok {
		n = trustedNodes(p, []int32{int32(i)}, deadline)[0]
	} else {
		n = &TrustedNode{Problem: p, Self: self, Deadline: deadline, t: t, self: -1, owner: -1}
	}
	n.Honest = honest
	return n
}

// trustedNodes builds the honest nodes of the trusted components in the
// given party slots, carved from a few slabs sized in one pass. A node's
// exchanges and offers are rows of the action table.
func trustedNodes(p *model.Compiled, slots []int32, deadline Time) []*TrustedNode {
	t := p.ActionTable()
	slab := make([]TrustedNode, len(slots))
	out := make([]*TrustedNode, len(slots))
	// Exchange ei's deadline tag is a substring of one string (a Builder
	// never rewrites bytes it wrote); every node shares the slice.
	tags := make([]string, len(p.Exchanges))
	var b strings.Builder
	b.Grow(len(tags) * len("deadline:"+strconv.Itoa(len(tags))))
	var tag [20]byte
	for ei := range tags {
		start := b.Len()
		b.Write(strconv.AppendInt(append(tag[:0], "deadline:"...), int64(ei), 10))
		tags[ei] = b.String()[start:]
	}
	var keys, tabs, wals int
	for i, k := range slots {
		// Fields are set one by one: a whole-struct store into the
		// zeroed slab would copy every field under a write barrier.
		n := &slab[i]
		out[i] = n
		n.Problem, n.Self, n.Deadline, n.Honest, n.t = p, p.Parties[k].ID, deadline, true, t
		n.self, n.owner, n.adjacent, n.offers, n.tags = k, t.Persona[k], t.At(int(k)), t.OffersVia(int(k)), tags
		if n.owner >= 0 {
			n.PersonaOwner = p.Parties[n.owner].ID
		}
		d := n.deposits()
		keys, tabs, wals = keys+d, tabs+tableSize(d), wals+d+len(n.adjacent)+1
	}
	// The honest protocol logs one receipt per deposit, one delivery
	// per adjacent exchange and one deadline.
	keySlab, tabSlab := make([]int32, keys), make([]int32, tabs)
	walSlab := make([]walEntry, wals)
	for _, n := range out {
		d := n.deposits()
		keySlab, tabSlab = n.received.carve(d, keySlab, tabSlab)
		w := d + len(n.adjacent) + 1
		n.wal, walSlab = walSlab[:0:w], walSlab[w:]
	}
	return out
}

// deposits counts the deposits of the exchanges mediated here.
func (n *TrustedNode) deposits() int {
	d := 0
	for _, ei := range n.adjacent {
		d += len(n.t.Deposits(int(ei)))
	}
	return d
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
		n.onTransfer(ctx, m.slot)
	case MsgNotify:
		// Trusted components ignore notifications.
	}
}

// onTransfer handles the transfer in slot s.
func (n *TrustedNode) onTransfer(ctx *Context, s int32) {
	t := n.t
	// Returned goods: the compensation of a receipt this node forwarded
	// (a persona owner answering a recall). Un-deliver and retry refunds.
	if fwd := s - int32(t.Transfers); fwd >= 0 {
		for _, ei := range n.adjacent {
			if n.delivered.get(ei) && slices.Contains(t.Receipts(int(ei)), fwd) {
				n.logApply(walEntry{op: walUndelivered, idx: ei})
				n.retryRefunds(ctx)
				return
			}
		}
		return // other inverses (stray refunds) are final
	}
	if oi, ok := n.matchCollateral(s); ok {
		n.logApply(walEntry{op: walCollateral, idx: oi})
		n.logApply(walEntry{op: walReceived, slot: s})
		if n.aborted {
			// Collateral delayed past the unwind (a partition or spike
			// held it in transit): settle it immediately under the
			// deadline rule instead of absorbing it.
			n.settleOffer(ctx, oi)
			return
		}
		n.armDeadline(ctx, "deadline:collateral")
		// Confirm the indemnity account to the protected principal: its
		// split-dependent deposits wait for this (Section 6 — the
		// customer treats the transfers as separate transactions only
		// once the collateral exists).
		pr := t.Principal[n.Problem.Indemnities[oi].Covers]
		ctx.sendTagged(n.Problem.Parties[pr].ID, pr, "posted:"+strconv.Itoa(int(oi)))
		return
	}
	ei, ok := n.matchDeposit(s)
	if !ok {
		// Unsolicited transfer: return it.
		_ = ctx.sendTransfer(s + int32(t.Transfers))
		return
	}
	if n.aborted {
		if n.delivered.get(ei) {
			// A persona owner settling its withdrawal with payment after
			// the unwind: accept and finish the counterpart sides.
			n.logApply(walEntry{op: walReceived, slot: s})
			n.settleAfterAbort(ctx)
			return
		}
		// Late deposit to an unwound exchange: bounce it.
		_ = ctx.sendTransfer(s + int32(t.Transfers))
		return
	}
	first := len(n.received.keys) == 0
	n.logApply(walEntry{op: walReceived, slot: s})
	if first {
		n.armDeadline(ctx, n.tags[ei])
	}
	if n.exchangeWhole(ei) {
		// Notify the principals of the still-missing sides.
		for _, ej := range n.adjacent {
			if ej != ei && !n.exchangeWhole(ej) {
				ctx.sendNotify(t.Notify(int(ej)))
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
		for _, d := range n.t.Deposits(int(ei)) {
			if n.received.has(d) && !n.refunded.has(d) {
				if err := ctx.sendTransfer(d + int32(n.t.Transfers)); err == nil {
					n.logApply(walEntry{op: walRefunded, slot: d})
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
		for _, r := range n.t.Receipts(int(ei)) {
			if err := ctx.sendTransfer(r); err != nil {
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
	if n.owner < 0 {
		return
	}
	t := n.t
	for _, ei := range n.adjacent {
		if t.Principal[ei] != n.owner || n.delivered.get(ei) {
			continue
		}
		// Forward when every item of the owner's Gets has arrived from
		// the counterpart side.
		ready := true
		for _, r := range t.Receipts(int(ei)) {
			if t.Give[r] && !n.holdsItem(t.CellItem[t.Src[r]]) {
				ready = false
			}
		}
		if !ready {
			continue
		}
		n.logApply(walEntry{op: walDelivered, idx: ei})
		for _, r := range t.Receipts(int(ei)) {
			if err := ctx.sendTransfer(r); err != nil {
				n.logApply(walEntry{op: walUndelivered, idx: ei})
				return
			}
		}
	}
}

// holdsItem reports whether a received, unrefunded give moved item here.
func (n *TrustedNode) holdsItem(item model.ItemID) bool {
	t := n.t
	for _, s := range n.received.keys {
		if t.Give[s] && t.CellItem[t.Src[s]] == item && !n.refunded.has(s) {
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
		for _, r := range n.t.Receipts(int(ei)) {
			if err := ctx.sendTransfer(r); err != nil {
				// Completion failure indicates a runner bug; surface via
				// the runner's fault channel through a refund.
				n.logApply(walEntry{op: walUndelivered, idx: ei})
				return
			}
		}
	}
	// Everything delivered: refund live collateral to its offerers.
	for _, oi := range n.offers {
		if !n.collateral.get(oi) || n.settled.get(oi) {
			continue
		}
		n.logApply(walEntry{op: walSettled, idx: oi})
		_ = ctx.sendTransfer(n.t.Post[oi] + int32(n.t.Transfers))
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
	for _, oi := range n.offers {
		if !n.collateral.get(oi) || n.settled.get(oi) {
			continue
		}
		n.settleOffer(ctx, oi)
	}
	// Refund every held, undelivered deposit the node can still fund.
	n.retryRefunds(ctx)
	// Withdrawn-but-unpaid persona exchanges: demand return or payment.
	for _, ei := range n.adjacent {
		if n.t.Principal[ei] == n.owner && n.delivered.get(ei) && !n.exchangeWhole(ei) {
			ctx.sendTagged(n.PersonaOwner, n.owner, "recall:"+strconv.Itoa(int(ei)))
		}
	}
}

// settleOffer resolves one held collateral account under the deadline
// rule: a covered, attempted, undelivered exchange forfeits the
// collateral to the protected principal; otherwise it is refunded to
// the offerer. Called from onDeadline for each held offer, and from the
// transfer handler when collateral arrives after the unwind already ran.
func (n *TrustedNode) settleOffer(ctx *Context, oi int32) {
	n.logApply(walEntry{op: walSettled, idx: oi})
	covers := int32(n.Problem.Indemnities[oi].Covers)
	if n.allDeposits(covers, n.received.has) && !n.delivered.get(covers) {
		_ = ctx.sendTransfer(n.t.Payout[oi])
		return
	}
	_ = ctx.sendTransfer(n.t.Post[oi] + int32(n.t.Transfers))
}

func (n *TrustedNode) exchangeWhole(ei int32) bool {
	return n.allDeposits(ei, func(d int32) bool {
		return n.received.has(d) && !n.refunded.has(d)
	})
}

// matchDeposit returns the first exchange mediated here that lists
// slot s as a deposit.
func (n *TrustedNode) matchDeposit(s int32) (int32, bool) {
	for _, ei := range n.adjacent {
		if slices.Contains(n.t.Deposits(int(ei)), s) {
			return ei, true
		}
	}
	return 0, false
}

// allDeposits reports whether ok holds for every deposit slot of
// exchange ei.
func (n *TrustedNode) allDeposits(ei int32, ok func(int32) bool) bool {
	for _, d := range n.t.Deposits(int(ei)) {
		if !ok(d) {
			return false
		}
	}
	return true
}

// matchCollateral returns the offer whose collateral post is slot s.
func (n *TrustedNode) matchCollateral(s int32) (int32, bool) {
	for _, oi := range n.offers {
		if n.t.Post[oi] == s {
			return oi, true
		}
	}
	return 0, false
}

// PrincipalNode executes one principal's slice of a synthesized plan.
// Its script is the ordered list of the principal's own action steps;
// each step waits for the notifications and deliveries addressed to the
// principal that precede it in the plan (the causal prerequisites), then
// fires. Steps, waits and the seen and sent sets hold slots of the
// problem's action table, as the plan's steps do.
//
// StopAfter bounds the number of script steps performed: a value < 0
// means honest (no bound); 0 is a fully silent defector; k > 0 defects
// after k steps.
type PrincipalNode struct {
	Problem   *model.Compiled
	Self      model.PartyID
	StopAfter int

	t      *model.ActionTable
	self   int32 // Self's party slot
	script []scriptStep
	next   int
	// waited counts the leading waitFor entries of script[next] seen.
	// seen only grows and each step's waitFor extends the last one's, so
	// tryFire checks each wait once per run. Not checkpointed: a
	// restored node re-derives it from 0.
	waited int
	seen   slotSet
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
	sent slotSet
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
	sent []int32 // the transfer slots sent towards settlement
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
	slots []int32
	// waitFor are actions addressed to this principal that must have
	// been observed before the step fires.
	waitFor []int32
	// waitTags are control confirmations (collateral postings) that must
	// have been observed.
	waitTags []string
	// waitAny holds groups of alternatives: for each group, at least one
	// of its actions must have been observed (e.g. "the wholesale
	// intermediary notified me" OR "it already delivered the item").
	waitAny [][]int32
}

// snapshotPrefix freezes the current contents of an append-only slice
// without copying: the capacity cap makes the snapshot un-appendable,
// and since the source only ever grows past its current length, the
// shared prefix is immutable. The script builder leans on this — a
// population producer observes thousands of actions across its steps,
// and copying each step's cumulative prefix was the single largest
// allocation in a large-population setup.
func snapshotPrefix[T any](s []T) []T {
	return s[:len(s):len(s)]
}

// BuildPrincipalNodes derives the script of every principal in one
// pass over plan.Steps: each principal accumulates the slots and
// control tags addressed to it in step order, and snapshots that
// prefix as the wait set of each of its own deposit/post steps. Doing
// all principals in a single pass turns an O(principals × steps)
// build — quadratic at population scale, since steps grow with
// principals — into O(steps × step fan-out). Receivers are found by
// party slot, from the action table. A counting pass over the steps
// first sizes every principal's share, so the nodes, their scripts,
// observation prefixes and sets are carved from a few plan-sized slabs
// instead of being grown one by one.
//
// defectors maps principals to their StopAfter bound; absent
// principals are honest (StopAfter -1).
func BuildPrincipalNodes(plan *core.Plan, defectors map[model.PartyID]int) []*PrincipalNode {
	p := plan.Problem
	t := p.ActionTable()
	slab := make([]PrincipalNode, len(p.Parties)-len(t.Trusteds))
	nodes := make([]*PrincipalNode, len(slab))
	node := make([]int32, len(p.Parties)) // by party slot; -1 for a trusted component
	j := int32(0)
	for i, pa := range p.Parties {
		node[i] = -1
		if pa.IsTrusted() {
			continue
		}
		stop := -1
		if k, ok := defectors[pa.ID]; ok {
			stop = k
		}
		n := &slab[j]
		n.Problem, n.Self, n.StopAfter, n.t, n.self = p, pa.ID, stop, t, int32(i)
		nodes[j], node[i] = n, j
		j++
	}

	// What each principal observes and does, in step order.
	type share struct {
		observed                   []int32
		tags                       []string
		nObs, nTags, nSteps, sends int
	}
	shares := make([]share, len(nodes))
	for si := range plan.Steps {
		st := &plan.Steps[si]
		switch st.Kind {
		case core.StepNotify, core.StepDeliver, core.StepIndemnityRefund:
			for _, s := range st.Slots {
				if _, to := t.Parties(int(s)); node[to] >= 0 {
					shares[node[to]].nObs++
				}
			}
		case core.StepIndemnityPost:
			if i := node[t.Principal[p.Indemnities[st.Offer].Covers]]; i >= 0 {
				shares[i].nTags++
			}
			if by, _ := t.Parties(int(st.Slots[0])); node[by] >= 0 {
				shares[node[by]].nSteps++
				shares[node[by]].sends += len(st.Slots)
			}
		case core.StepDeposit:
			if i := node[t.Principal[st.Exchange]]; i >= 0 {
				shares[i].nSteps++
				shares[i].sends += len(st.Slots)
			}
		}
	}
	var obs, tags, steps, keys, tabs int
	for _, sh := range shares {
		obs, tags, steps = obs+sh.nObs, tags+sh.nTags, steps+sh.nSteps
		keys += sh.nObs + sh.sends
		tabs += tableSize(sh.nObs) + tableSize(sh.sends)
	}
	obsSlab, tagSlab := make([]int32, obs), make([]string, tags)
	stepSlab := make([]scriptStep, steps)
	keySlab, tabSlab := make([]int32, keys), make([]int32, tabs)
	for i, n := range nodes {
		sh := &shares[i]
		sh.observed, obsSlab = obsSlab[:0:sh.nObs], obsSlab[sh.nObs:]
		sh.tags, tagSlab = tagSlab[:0:sh.nTags], tagSlab[sh.nTags:]
		n.script, stepSlab = stepSlab[:0:sh.nSteps], stepSlab[sh.nSteps:]
		// A principal sees what the plan addresses to it and sends its
		// script's slots: size both sets for that.
		keySlab, tabSlab = n.seen.carve(sh.nObs, keySlab, tabSlab)
		keySlab, tabSlab = n.sent.carve(sh.sends, keySlab, tabSlab)
	}

	for si := range plan.Steps {
		st := &plan.Steps[si]
		switch st.Kind {
		case core.StepNotify, core.StepDeliver, core.StepIndemnityRefund:
			for _, s := range st.Slots {
				if _, to := t.Parties(int(s)); node[to] >= 0 {
					sh := &shares[node[to]]
					sh.observed = append(sh.observed, s)
				}
			}
		case core.StepIndemnityPost:
			off := p.Indemnities[st.Offer]
			by, _ := t.Parties(int(st.Slots[0]))
			if i := node[by]; i >= 0 {
				// A self-insured offerer posts only once it observes that
				// the covered goods are secured ("once it has obtained a
				// promise from the seller", Section 6): for each covered
				// item, either the wholesale intermediary's notification
				// or the item's actual delivery.
				var anyOf [][]int32
				if t.SelfInsured(st.Offer) {
					anyOf = securingSignals(p, t, by, off)
				}
				// The plan is immutable, so a step shares its slots.
				nodes[i].script = append(nodes[i].script, scriptStep{
					slots:    st.Slots,
					waitFor:  snapshotPrefix(shares[i].observed),
					waitTags: snapshotPrefix(shares[i].tags),
					waitAny:  anyOf,
				})
			}
			// The covered principal's later steps wait for the posting's
			// confirmation. It joins the waits only after the post step
			// above took its own: an offerer covering its own exchange
			// must not wait on the confirmation of its own post.
			if i := node[t.Principal[off.Covers]]; i >= 0 {
				shares[i].tags = append(shares[i].tags, "posted:"+strconv.Itoa(st.Offer))
			}
		case core.StepDeposit:
			i := node[t.Principal[st.Exchange]]
			if i < 0 {
				continue
			}
			nodes[i].script = append(nodes[i].script, scriptStep{
				slots:    st.Slots,
				waitFor:  snapshotPrefix(shares[i].observed),
				waitTags: snapshotPrefix(shares[i].tags),
			})
		}
	}
	return nodes
}

// securingSignals returns, per covered item, the alternative
// observations that tell the offerer in party slot self the item is
// secured: the notify from the trusted component of the offerer's
// purchase exchange for the item, or the item's actual delivery to the
// offerer. Items bought at a persona trusted played by the offerer are
// skipped — it observes its own escrow directly.
func securingSignals(p *model.Compiled, t *model.ActionTable, self int32, off model.IndemnityOffer) [][]int32 {
	var out [][]int32
	for _, it := range p.Exchanges[off.Covers].Gets.Items {
		var alts []int32
		for _, ei := range t.Own(int(self)) {
			if !p.Exchanges[ei].Gets.HasItem(it) {
				continue
			}
			if t.Persona[t.Trusted[ei]] == self {
				alts = nil
				break
			}
			alts = append(alts, t.Notify(int(ei)))
			for _, r := range t.Receipts(int(ei)) {
				if t.Give[r] && t.CellItem[t.Dst[r]] == it {
					alts = append(alts, r)
					break
				}
			}
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
	} else if m.slot >= 0 {
		n.seen.add(m.slot)
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
	rc := &recallState{ei: ei}
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
	deposits := n.t.Deposits(rc.ei)
	if rc.mode != recallReturning {
		paid := true
		for _, d := range deposits {
			if !n.sent.has(d) && !slices.Contains(rc.sent, d) {
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
		for _, r := range n.t.Receipts(rc.ei) {
			c := r + int32(n.t.Transfers) // the receipt's compensation
			if slices.Contains(rc.sent, c) {
				continue
			}
			if err := ctx.sendTransfer(c); err != nil {
				all = false
				continue
			}
			rc.sent = append(rc.sent, c)
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
		if slices.Contains(rc.sent, d) || n.sent.has(d) {
			continue
		}
		if err := ctx.sendTransfer(d); err != nil {
			all = false
			continue
		}
		rc.sent = append(rc.sent, d)
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
			for _, s := range alts {
				if n.seen.has(s) {
					sawOne = true
					break
				}
			}
			if !sawOne {
				return
			}
		}
		for _, s := range st.slots {
			if err := ctx.sendTransfer(s); err != nil {
				n.faults = append(n.faults, fmt.Errorf("sim: %s step %d: %w", n.Self, n.next, err))
				return
			}
			n.sent.add(s)
		}
		n.next++
		n.fired++
	}
}
