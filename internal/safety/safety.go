package safety

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"trustseq/internal/model"
)

// Exec tracks the evolving execution of an exchange problem, densely over
// the problem's action table: the executed actions are a model.State, a
// bitset over the table's slots, and the holdings one cash balance per
// party slot and one item count per cell. Every predicate below reads
// slots; none hashes an action.
type Exec struct {
	Problem *model.Problem
	t       *model.ActionTable
	done    model.State   // executed actions
	cash    []model.Money // by party slot
	items   []int32       // by cell
}

// NewExec returns the execution at the status quo, with inferred initial
// holdings. It builds the problem's action table on first use, so call it
// before sharing the problem across goroutines.
func NewExec(p *model.Problem) *Exec {
	t := p.ActionTable()
	return &Exec{
		Problem: p,
		t:       t,
		done:    t.NewState(),
		cash:    slices.Clone(t.InitCash),
		items:   slices.Clone(t.InitItems),
	}
}

// Clone returns an independent copy.
func (x *Exec) Clone() *Exec { return x.cloneInto(new(Exec)) }

// cloneInto overwrites dst with a copy of x, reusing dst's slices. Any
// recycled Exec will do — the problems need not match — which is what
// lets one sync.Pool back every state-space search.
func (x *Exec) cloneInto(dst *Exec) *Exec {
	dst.Problem, dst.t = x.Problem, x.t
	dst.done = x.done.CloneInto(dst.done)
	dst.cash = append(dst.cash[:0], x.cash...)
	dst.items = append(dst.items[:0], x.items...)
	return dst
}

// execPool recycles Exec clones across every searcher in the process —
// the serial and parallel exhaustive drivers and the per-node safety
// mini-searches all draw from it.
var execPool = sync.Pool{New: func() any { return new(Exec) }}

// ClonePooled is Clone backed by the shared pool; pass the result to
// Release when it can no longer be referenced.
func (x *Exec) ClonePooled() *Exec {
	return x.cloneInto(execPool.Get().(*Exec))
}

// Release returns a pooled clone for reuse. The caller must not touch x
// afterwards.
func Release(x *Exec) {
	if x != nil {
		execPool.Put(x)
	}
}

func (x *Exec) has(s int32) bool { return x.done.HasSlot(int(s)) }

// live reports whether forward transfer slot s occurred uncompensated.
func (x *Exec) live(s int32) bool { return x.done.Live(int(s)) }

// Has reports whether the action has occurred.
func (x *Exec) Has(a model.Action) bool { return x.done.Has(a) }

// Snapshot returns a copy of the executed actions.
func (x *Exec) Snapshot() model.State { return x.done.Clone() }

// Holding returns a copy of a party's current holding, or nil for a
// party the problem does not name.
func (x *Exec) Holding(id model.PartyID) *model.Holding {
	i, ok := x.t.PartySlot(id)
	if !ok {
		return nil
	}
	h := &model.Holding{Cash: x.cash[i], Items: make(map[model.ItemID]int)}
	for _, ci := range x.t.Cells(i) {
		if n := x.items[ci]; n != 0 {
			h.Items[x.t.CellItem[ci]] = int(n)
		}
	}
	return h
}

// ItemCount returns how many units of item the party holds.
func (x *Exec) ItemCount(id model.PartyID, item model.ItemID) int {
	i, ok := x.t.PartySlot(id)
	if !ok {
		return 0
	}
	ci, ok := x.t.Cell(i, item)
	if !ok {
		return 0
	}
	return int(x.items[ci])
}

// funded reports whether the mover of transfer slot s holds its asset.
func (x *Exec) funded(s int32) bool {
	fwd, from, _ := x.t.Endpoints(int(s))
	if !x.t.Give[fwd] {
		return x.cash[from] >= x.t.Cash[fwd]
	}
	return x.items[from] > 0
}

// try executes slot s, moving a transfer's asset. It reports false, with
// nothing changed, when the mover cannot fund the transfer or the action
// already occurred.
func (x *Exec) try(s int32) bool {
	if x.has(s) {
		return false
	}
	if int(s) < 2*x.t.Transfers {
		if !x.funded(s) {
			return false
		}
		fwd, from, to := x.t.Endpoints(int(s))
		if amount := x.t.Cash[fwd]; !x.t.Give[fwd] {
			x.cash[from] -= amount
			x.cash[to] += amount
		} else {
			x.items[from]--
			x.items[to]++
		}
	}
	x.done.AddSlot(int(s))
	return true
}

// applySlot is try with the reason for a refusal.
func (x *Exec) applySlot(s int32) error {
	a := x.t.Action(int(s))
	if int(s) < 2*x.t.Transfers && !x.funded(s) {
		err := fmt.Errorf("model: holding %v does not contain %v", x.Holding(a.Mover()), a.Asset())
		return fmt.Errorf("safety: %s cannot fund %v: %w", a.Mover(), a, err)
	}
	if !x.try(s) {
		return fmt.Errorf("model: action %v already in state", a)
	}
	return nil
}

// Apply executes one transfer or notify action, moving assets between
// holdings. It fails if the action is not one of the problem's own (a
// *model.ForeignActionError), the mover cannot fund the transfer, or the
// action already occurred.
func (x *Exec) Apply(a model.Action) error {
	s, ok := x.t.Slot(a)
	if !ok {
		return &model.ForeignActionError{Action: a}
	}
	return x.applySlot(int32(s))
}

// ErrUnknownSlot is the error of a slot outside the problem's action
// table.
var ErrUnknownSlot = errors.New("safety: slot outside the problem's action table")

// ApplySlot is Apply for the action in slot s of the problem's action
// table. A slot outside the table fails with ErrUnknownSlot.
func (x *Exec) ApplySlot(s int) error {
	if s < 0 || s >= x.t.Len() {
		return fmt.Errorf("%w: %d of %d", ErrUnknownSlot, s, x.t.Len())
	}
	return x.applySlot(int32(s))
}

// MustApply is Apply for statically valid sequences.
func (x *Exec) MustApply(a model.Action) {
	if err := x.Apply(a); err != nil {
		panic(err)
	}
}

// applyAll applies the slots in order, each of which must be new.
func (x *Exec) applyAll(slots []int32) error {
	for _, s := range slots {
		if err := x.applySlot(s); err != nil {
			return err
		}
	}
	return nil
}

// ApplyDeposits executes every deposit action of exchange ei in order;
// like Apply, it fails on one that already occurred.
func (x *Exec) ApplyDeposits(ei int) error { return x.applyAll(x.t.Deposits(ei)) }

// ApplyReceipts executes every receipt action of exchange ei in order;
// like Apply, it fails on one that already occurred.
func (x *Exec) ApplyReceipts(ei int) error { return x.applyAll(x.t.Receipts(ei)) }

// completeRest executes the slots that have not occurred yet, in order.
func (x *Exec) completeRest(slots []int32) error {
	for _, s := range slots {
		if x.has(s) {
			continue
		}
		if err := x.applySlot(s); err != nil {
			return err
		}
	}
	return nil
}

// CompleteDeposit executes the deposit actions of exchange ei that have
// not occurred yet.
func (x *Exec) CompleteDeposit(ei int) error { return x.completeRest(x.t.Deposits(ei)) }

// Post places indemnity offer oi's collateral.
func (x *Exec) Post(oi int) error {
	if s := x.t.Post[oi]; s >= 0 {
		return x.applySlot(s)
	}
	return &model.ForeignActionError{Action: IndemnityPostAction(x.Problem, x.Problem.Indemnities[oi])}
}

// Posted reports whether offer oi's collateral has been posted (whether
// or not it was refunded since).
func (x *Exec) Posted(oi int) bool {
	s := x.t.Post[oi]
	return s >= 0 && x.has(s)
}

// Deposited reports whether every deposit action of exchange ei has
// occurred and none has been compensated.
func (x *Exec) Deposited(ei int) bool {
	for _, d := range x.t.Deposits(ei) {
		if !x.live(d) {
			return false
		}
	}
	return true
}

// Delivered reports whether every receipt action of exchange ei has
// occurred and none has been compensated (a returned early withdrawal
// leaves the exchange undelivered).
func (x *Exec) Delivered(ei int) bool { return x.done.Delivered(ei) }

// PartialDeposit reports whether some but not all deposit actions of ei
// occurred without compensation.
func (x *Exec) PartialDeposit(ei int) bool {
	some, all := false, true
	for _, d := range x.t.Deposits(ei) {
		if x.live(d) {
			some = true
		} else {
			all = false
		}
	}
	return some && !all
}

// DepositAttempted reports whether every deposit action of exchange ei
// occurred, compensated or not — the paper's forfeit condition cares that
// the protected principal "provides payment", even if the escrow was
// later returned.
func (x *Exec) DepositAttempted(ei int) bool {
	for _, d := range x.t.Deposits(ei) {
		if !x.has(d) {
			return false
		}
	}
	return true
}

// TrustedReady reports whether the trusted component holds every deposit
// of every adjacent exchange and still has something to deliver.
func (x *Exec) TrustedReady(t model.PartyID) bool {
	ti, ok := x.t.PartySlot(t)
	return ok && x.trustedReady(int32(ti))
}

func (x *Exec) trustedReady(ti int32) bool {
	at := x.t.At(int(ti))
	undelivered := false
	for _, ei := range at {
		if !x.Deposited(int(ei)) {
			return false
		}
		if !x.Delivered(int(ei)) {
			undelivered = true
		}
	}
	return len(at) > 0 && undelivered
}

// holds reports whether the endpoints on one side of the forward slots —
// their movers, or with atDst their receivers — hold every asset the
// slots move, counting an item once per slot that moves it.
func (x *Exec) holds(slots []int32, atDst bool) bool {
	var cash model.Money
	payer := int32(-1)
	for i, s := range slots {
		at := x.t.Src[s]
		if atDst {
			at = x.t.Dst[s]
		}
		if !x.t.Give[s] {
			cash += x.t.Cash[s]
			payer = at
			continue
		}
		if x.countGives(slots[:i], at, atDst) > 0 {
			continue // counted at its first slot
		}
		if int(x.items[at]) < x.countGives(slots[i:], at, atDst) {
			return false
		}
	}
	return payer < 0 || x.cash[payer] >= cash
}

// countGives counts the give slots whose endpoint on the given side is
// cell.
func (x *Exec) countGives(slots []int32, cell int32, atDst bool) int {
	n := 0
	for _, s := range slots {
		at := x.t.Src[s]
		if atDst {
			at = x.t.Dst[s]
		}
		if x.t.Give[s] && at == cell {
			n++
		}
	}
	return n
}

// TrustedHoldsGets reports whether exchange ei's trusted component holds
// the exchange's Gets bundle.
func (x *Exec) TrustedHoldsGets(ei int) bool { return x.holds(x.t.Receipts(ei), false) }

// HoldsGives reports whether exchange ei's principal holds the
// exchange's whole Gives bundle, deposited or not.
func (x *Exec) HoldsGives(ei int) bool { return x.holds(x.t.Deposits(ei), false) }

// CanWithdraw reports whether the principal of exchange ei may take its
// goods early now: ei is at a persona trusted of that principal,
// undelivered, and the trusted holds the goods.
func (x *Exec) CanWithdraw(ei int) bool {
	return x.t.AtPersona[ei] && !x.Delivered(ei) && x.TrustedHoldsGets(ei)
}

// EarlyWithdraw lets the persona principal of a trusted component take
// the goods escrowed for it before paying — Section 4.2.3's "risk-free
// access to document #1". The receipts of the principal's exchange at
// its persona trusted are applied without the principal's deposit; the
// principal thereafter owes either the goods' return or its deposit.
func (x *Exec) EarlyWithdraw(ei int) error {
	if !x.t.AtPersona[ei] {
		return fmt.Errorf("safety: exchange %d is not at a persona trusted of its principal", ei)
	}
	if err := x.completeRest(x.t.Receipts(ei)); err != nil {
		return fmt.Errorf("safety: early withdrawal for exchange %d: %w", ei, err)
	}
	return nil
}

// CompleteTrusted makes the trusted component forward every adjacent
// Gets bundle to its principal.
func (x *Exec) CompleteTrusted(t model.PartyID) error {
	ti, ok := x.t.PartySlot(t)
	if !ok {
		return nil
	}
	return x.completeTrusted(int32(ti))
}

func (x *Exec) completeTrusted(ti int32) error {
	for _, ei := range x.t.At(int(ti)) {
		if err := x.completeRest(x.t.Receipts(int(ei))); err != nil {
			return err
		}
	}
	return nil
}

// RefundTrusted compensates every uncompensated deposit held by the
// trusted component for exchanges that were not delivered.
func (x *Exec) RefundTrusted(t model.PartyID) error {
	ti, ok := x.t.PartySlot(t)
	if !ok {
		return nil
	}
	for _, ei := range x.t.At(ti) {
		if x.Delivered(int(ei)) {
			continue
		}
		for _, d := range x.t.Deposits(int(ei)) {
			if x.live(d) {
				if err := x.applySlot(d + int32(x.t.Transfers)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// indemnityAmount resolves an offer's amount.
func indemnityAmount(p *model.Problem, off model.IndemnityOffer) model.Money {
	if off.Amount != 0 {
		return off.Amount
	}
	return model.RequiredIndemnity(p, off.Covers)
}

// IndemnityPostAction returns the pay action that places the collateral.
func IndemnityPostAction(p *model.Problem, off model.IndemnityOffer) model.Action {
	return model.Pay(off.By, off.Via, indemnityAmount(p, off))
}

// IndemnityPayoutAction returns the pay action that forfeits the
// collateral to the protected principal.
func IndemnityPayoutAction(p *model.Problem, off model.IndemnityOffer) model.Action {
	return model.Pay(off.Via, p.Exchanges[off.Covers].Principal, indemnityAmount(p, off))
}

// settleIndemnities resolves posted collateral at the end of a closure:
// if the protected principal provided its payment for the covered
// exchange and the goods were not delivered within the deadline, the
// collateral is forfeited to the principal (Section 6); otherwise it is
// refunded to the offerer. It reports false when a settlement cannot be
// funded.
func (x *Exec) settleIndemnities() bool {
	for oi, off := range x.Problem.Indemnities {
		post, payout := x.t.Post[oi], x.t.Payout[oi]
		if post < 0 || !x.live(post) || x.has(payout) {
			continue
		}
		if x.DepositAttempted(off.Covers) && !x.Delivered(off.Covers) {
			if !x.try(payout) {
				return false
			}
			continue
		}
		if !x.try(post + int32(x.t.Transfers)) {
			return false
		}
	}
	return true
}

// indemnityProtected reports whether live collateral covers exchange ei:
// depositing on ei is then risk-free for its principal — either the
// exchange completes or the penalty is forfeited to the principal.
func (x *Exec) indemnityProtected(ei int) bool {
	for oi, off := range x.Problem.Indemnities {
		if post := x.t.Post[oi]; off.Covers == ei && post >= 0 && x.live(post) {
			return true
		}
	}
	return false
}

// SafeFor reports whether principal x is safe in the current execution:
// there EXISTS a continuation — using only x's own deposits plus the
// trusted components' guaranteed behaviour, with every other principal
// stopped — that ends in a state acceptable to x. Doing nothing is a
// valid continuation; x is never forced to act.
//
// The environment is deterministic but not passive: a trusted component
// holding every deposit is *bound* to complete (Section 2.5), so
// completions are forced after each of x's moves. x's available moves
// are deposits on exchanges whose trusted component holds every other
// deposit (the notification guarantee: providing the missing component
// assures completion) or on exchanges covered by live indemnity
// collateral, when x can fund them. The search explores x's choices and
// accepts if any wind-down (refund every pending escrow, settle
// indemnities) is acceptable to x.
func SafeFor(x *Exec, principal model.PartyID) bool {
	return safeFor(x, principal, false)
}

// AssetSafe is the per-exchange asset-integrity variant of SafeFor: the
// paper's hard runtime guarantee. It asks whether x — acting alone, with
// every other principal stopped and trusted components honouring their
// guarantees — can steer to a state where none of its assets is lost
// without the promised counter-asset: each exchange individually
// untouched, refunded or completed, with the Section 6 indemnity rules
// applied. Conjunction (all-or-nothing) preferences are deliberately NOT
// enforced here; they are commit-ordering constraints checked on final
// states.
func AssetSafe(x *Exec, principal model.PartyID) bool {
	return safeFor(x, principal, true)
}

// safeFor runs the mini-search under model.AcceptableAssets (assets) or
// model.Acceptable. A party the problem does not name has nothing at
// risk.
func safeFor(x *Exec, principal model.PartyID, assets bool) bool {
	pi, ok := x.t.PartySlot(principal)
	if !ok {
		return true
	}
	c := x.ClonePooled()
	seen := seenPool.Get().(*seenSet)
	found := safeSearch(c, int32(pi), seen, assets)
	seen.reset()
	seenPool.Put(seen)
	Release(c)
	return found
}

// seenSet memoizes the deposit patterns visited by one safety
// mini-search. The pattern packs into a single uint64 whenever the
// principal owns at most 32 exchanges (2 status bits each); outsized
// problems fall back to the string depositKey. Both forms are injective
// over the same equivalence classes, so the packing changes no verdict.
// A mini-search visits a handful of patterns, so the packed ones are
// scanned in a short slice and spill to a map only past seenSmall.
type seenSet struct {
	small []uint64
	large map[uint64]bool
	str   map[string]bool
}

const seenSmall = 64

// seenPool recycles seen sets across mini-searches, as execPool does
// executions.
var seenPool = sync.Pool{New: func() any { return new(seenSet) }}

func (s *seenSet) reset() {
	s.small = s.small[:0]
	s.large, s.str = nil, nil
}

// visit records the principal-local deposit pattern of c and reports
// whether it had been seen before.
func (s *seenSet) visit(c *Exec, principal int32) bool {
	own := c.t.Own(int(principal))
	if len(own) <= 32 {
		var k uint64
		for i, ei := range own {
			k |= c.exchangeStatus(int(ei)) << (2 * i)
		}
		if slices.Contains(s.small, k) || s.large[k] {
			return true
		}
		if len(s.small) < seenSmall {
			s.small = append(s.small, k)
			return false
		}
		if s.large == nil {
			s.large = make(map[uint64]bool)
		}
		s.large[k] = true
		return false
	}
	key := depositKey(c, own)
	if s.str == nil {
		s.str = make(map[string]bool)
	}
	if s.str[key] {
		return true
	}
	s.str[key] = true
	return false
}

func safeSearch(c *Exec, principal int32, seen *seenSet, assets bool) bool {
	if !c.forceCompletions(principal) {
		return false
	}
	if seen.visit(c, principal) {
		return false
	}
	if windDownAcceptable(c, principal, assets) {
		return true
	}
	own := c.t.Own(int(principal))
	for _, e32 := range own {
		ei := int(e32)
		if c.Deposited(ei) || c.Delivered(ei) {
			continue
		}
		if !c.othersDeposited(c.t.Trusted[ei], ei) && !c.indemnityProtected(ei) {
			continue
		}
		if !c.CanFund(ei) {
			continue
		}
		next := c.ClonePooled()
		hit := next.CompleteDeposit(ei) == nil && safeSearch(next, principal, seen, assets)
		Release(next)
		if hit {
			return true
		}
	}
	// Move: early withdrawal from an own persona trusted.
	for _, ei := range own {
		if !c.CanWithdraw(int(ei)) {
			continue
		}
		next := c.ClonePooled()
		hit := next.EarlyWithdraw(int(ei)) == nil && safeSearch(next, principal, seen, assets)
		Release(next)
		if hit {
			return true
		}
	}
	return false
}

// forceCompletions completes every ready trusted component to fixpoint —
// completions are the environment's guaranteed (not optional) moves. A
// trusted component played by the analysed principal itself is exempt:
// its completion is that principal's own optional move.
func (x *Exec) forceCompletions(analysed int32) bool {
	for {
		progress := false
		for _, ti := range x.t.Trusteds {
			if !x.trustedReady(ti) || x.t.Persona[ti] == analysed {
				continue
			}
			if x.completeTrusted(ti) != nil {
				return false
			}
			progress = true
		}
		if !progress {
			return true
		}
	}
}

// depositKey fingerprints the principal's deposit choices (forced
// completions are a deterministic function of them during the search).
func depositKey(x *Exec, own []int32) string {
	b := make([]byte, len(own))
	for i, ei := range own {
		b[i] = '0' + byte(x.exchangeStatus(int(ei)))
	}
	return string(b)
}

// windDownAcceptable evaluates the stop-now outcome. Winding down is a
// cascade, not a single pass: a trusted component can only refund assets
// it physically holds, and a persona trustee that withdrew goods early
// owes their return — or, if it can no longer return them (they were sold
// on), their payment. The cascade runs to fixpoint:
//
//  1. persona trustees settle outstanding early withdrawals: return the
//     goods if held, otherwise pay the owed deposit and complete;
//  2. ready trusted components complete (bound by their guarantee);
//  3. trusted components refund every pending escrow they can fund.
//
// Afterwards indemnities settle and x's acceptability is evaluated. An
// escrow that could not be refunded leaves its depositor with an
// uncompensated, undelivered deposit, which Acceptable rejects — so a
// genuinely stuck wind-down reads as unsafe.
func windDownAcceptable(x *Exec, principal int32, assets bool) bool {
	c := x.ClonePooled()
	defer Release(c)
	comp := int32(c.t.Transfers)
	for {
		progress := false

		// Step 1: persona trustee duties.
		for ei, persona := range c.t.AtPersona {
			if !persona || !c.Delivered(ei) || c.Deposited(ei) {
				continue
			}
			if recs := c.t.Receipts(ei); c.holds(recs, true) {
				// Return the goods.
				okAll := true
				for _, r := range recs {
					if c.has(r + comp) {
						continue
					}
					if !c.try(r + comp) {
						okAll = false
						break
					}
				}
				if okAll {
					progress = true
				}
				continue
			}
			// Pay instead, if fundable.
			if c.CanFund(ei) && c.CompleteDeposit(ei) == nil {
				progress = true
			}
		}

		// Step 2: forced completions (everyone honours guarantees in a
		// wind-down; the analysed principal has already made its choices).
		for _, ti := range c.t.Trusteds {
			if c.trustedReady(ti) {
				if c.completeTrusted(ti) != nil {
					return false
				}
				progress = true
			}
		}

		// Step 3: fundable refunds.
		for _, ti := range c.t.Trusteds {
			for _, ei := range c.t.At(int(ti)) {
				if c.Delivered(int(ei)) {
					continue
				}
				for _, d := range c.t.Deposits(int(ei)) {
					if !c.live(d) || !c.funded(d+comp) {
						continue
					}
					if !c.try(d + comp) {
						return false
					}
					progress = true
				}
			}
		}

		if !progress {
			break
		}
	}
	return c.settleIndemnities() && c.t.Acceptable(int(principal), c.done, assets)
}

// othersDeposited reports whether every exchange at the trusted component
// other than `except` is fully deposited and undelivered.
func (x *Exec) othersDeposited(ti int32, except int) bool {
	for _, ei := range x.t.At(int(ti)) {
		if int(ei) == except {
			continue
		}
		if !x.Deposited(int(ei)) || x.Delivered(int(ei)) {
			return false
		}
	}
	return true
}

// ForceCompletionsAll completes every ready trusted component (persona or
// not) to fixpoint — used by the exhaustive-search baseline, where the
// searcher controls timing through deposit order alone.
func (x *Exec) ForceCompletionsAll() error {
	for {
		progress := false
		for _, ti := range x.t.Trusteds {
			if x.trustedReady(ti) {
				if err := x.completeTrusted(ti); err != nil {
					return err
				}
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
}

// CanFund reports whether the principal of exchange ei currently holds
// what the exchange's outstanding deposit actions require (partially made
// deposits count as already funded). The requirement is tallied in place,
// because this check runs for every exchange at every search node.
func (x *Exec) CanFund(ei int) bool {
	deps := x.t.Deposits(ei)
	var cash model.Money
	payer := int32(-1)
	for i, d := range deps {
		if x.has(d) {
			continue
		}
		if !x.t.Give[d] {
			cash += x.t.Cash[d]
			payer = x.t.Src[d]
			continue
		}
		// The first outstanding Give of an item counts every outstanding
		// Give of that item; later occurrences are skipped.
		cell := x.t.Src[d]
		if x.outstandingGives(deps[:i], cell) > 0 {
			continue
		}
		if int(x.items[cell]) < x.outstandingGives(deps[i:], cell) {
			return false
		}
	}
	return payer < 0 || x.cash[payer] >= cash
}

// outstandingGives counts the deposit gives from cell that have not
// occurred.
func (x *Exec) outstandingGives(deps []int32, cell int32) int {
	n := 0
	for _, d := range deps {
		if x.t.Give[d] && x.t.Src[d] == cell && !x.has(d) {
			n++
		}
	}
	return n
}

// exchangeStatus is the 2-bit deposit/delivery code of exchange ei shared
// by every fingerprint form: bit 1 = deposit attempted, bit 0 = delivered.
func (x *Exec) exchangeStatus(ei int) uint64 {
	var code uint64
	if x.DepositAttempted(ei) {
		code |= 2
	}
	if x.Delivered(ei) {
		code |= 1
	}
	return code
}

// Fingerprint summarizes the execution state for memoization: the
// deposit/delivery pattern of every exchange plus the posted-indemnity
// pattern. It is the human-readable form; hot loops prefer the packed
// Fingerprint128.
func (x *Exec) Fingerprint() string {
	b := make([]byte, 0, len(x.Problem.Exchanges)+len(x.Problem.Indemnities))
	for ei := range x.Problem.Exchanges {
		b = append(b, '0'+byte(x.exchangeStatus(ei)))
	}
	for oi := range x.Problem.Indemnities {
		if x.Posted(oi) {
			b = append(b, 'P')
		} else {
			b = append(b, '.')
		}
	}
	return string(b)
}

// Fingerprint128 packs the Fingerprint pattern into two machine words:
// two bits per exchange followed by one bit per indemnity offer. ok is
// false when the problem is too large to pack exactly (2·|exchanges| +
// |indemnities| > 128 bits); callers then fall back to the string
// Fingerprint. The packing is injective — unlike a lossy hash, memoizing
// on it can never change a search verdict.
func (x *Exec) Fingerprint128() (fp [2]uint64, ok bool) {
	bits := 2*len(x.Problem.Exchanges) + len(x.Problem.Indemnities)
	if bits > 128 {
		return fp, false
	}
	pos := 0
	// Exchange fields are 2 bits wide and start at even positions, so no
	// field ever straddles the word boundary.
	for ei := range x.Problem.Exchanges {
		fp[pos/64] |= x.exchangeStatus(ei) << (pos % 64)
		pos += 2
	}
	for oi := range x.Problem.Indemnities {
		if x.Posted(oi) {
			fp[pos/64] |= 1 << (pos % 64)
		}
		pos++
	}
	return fp, true
}

// AllSafe reports whether every principal is safe in the execution.
func AllSafe(x *Exec) bool {
	for _, pa := range x.Problem.Parties {
		if pa.IsTrusted() {
			continue
		}
		if !SafeFor(x, pa.ID) {
			return false
		}
	}
	return true
}

// Completed reports whether every exchange has been delivered — the
// preferred all-parties outcome.
func Completed(x *Exec) bool {
	for ei := range x.Problem.Exchanges {
		if !x.Delivered(ei) {
			return false
		}
	}
	return true
}
