package model

import "slices"

// ActionTable is the dense, read-only action index of a compiled
// problem. Every action the problem defines — each exchange's deposits
// and receipts, their compensations, each indemnity offer's post, payout
// and refund, and the notify a trusted component sends the principal of
// each of its exchanges — owns one slot, interned by value: two actions
// that are equal as values share a slot, and so share an entry of a
// State, a bitset over the slots. Each slot's asset endpoints are
// resolved to holding indices — a party slot (the party's index in
// Problem.Parties) for money, a cell for an item — so an execution over
// the table keeps its holdings as flat arrays, and no predicate over it
// hashes an Action.
//
// Cells are the (party, item) pairs an exchange can move: one for each
// item of each exchange's Gives and Gets, on both the principal's and the
// trusted component's side. The table is O(exchanges + parties), never
// parties × items, and stores no Action values: Action rebuilds one from
// its slot.
//
// Slot layout: [0, Transfers) are the forward transfers, slot
// s+Transfers is the compensation of forward slot s, and the notifies
// follow from 2·Transfers. Compile builds the table once per compiled
// problem and nothing mutates it afterwards, so any number of
// goroutines may read it. It is the problem's one derived index: the party
// accessors, the sequencing graph and the engines all read its rows.
type ActionTable struct {
	// Transfers is the number of forward transfer slots.
	Transfers int

	// Per forward transfer slot: Src and Dst are its endpoints (party
	// slots for a pay, cells for a give; a compensation moves the asset
	// from Dst back to Src), Give marks a give, Cash is a pay's amount.
	Src, Dst []int32
	Give     []bool
	Cash     []Money
	// notifyFrom and notifyTo are each notify slot's party slots.
	notifyFrom, notifyTo []int32

	// Per exchange: Principal and Trusted are its party slots,
	// AtPersona marks the exchanges whose trusted component is played by
	// their own principal (Section 4.2.3) — the ones that principal may
	// withdraw from early — and Red the exchanges the red rules of
	// Section 4.1 make their principal secure first (see redRow).
	Principal, Trusted []int32
	AtPersona, Red     []bool
	notify             []int32 // the notify its trusted sends its principal
	deposits           rows    // slots in DepositActions order
	receipts           rows    // slots in ReceiptActions order
	split              []bool  // covered by an indemnity offer

	// Per indemnity offer: Post and Payout are its slots (its refund is
	// the post's compensation; both are -1 for an offer naming an unknown
	// party or exchange).
	Post, Payout []int32
	collateral   []Money // the resolved amount
	offerBy      []int32
	selfInsured  []bool
	via          rows // per party: offers with a post whose collateral it holds, ascending; none without offers

	// Trusteds lists the trusted components' party slots in roster
	// order, Persona each party slot's persona principal (-1 if none).
	Trusteds []int32
	Persona  []int32
	own      rows // per party: exchanges it is the principal of, ascending
	at       rows // per party: exchanges it is the trusted component of, ascending
	rest     rows // per party: own exchanges no indemnity splits out, ascending
	inPays   rows // per party: forward pay slots it receives
	inGives  rows // per cell: forward give slots received into it
	cellsOf  rows // per party: its cells

	// cells finds a cell from its party slot and item in one probe.
	cells map[cellKey]int32

	// CellItem and CellParty name each cell's item and party slot;
	// InitCash and InitItems are the status-quo holdings InitialHoldings
	// describes.
	CellItem  []ItemID
	CellParty []int32
	InitCash  []Money
	InitItems []int32

	problem *Problem
	parties map[PartyID]int // party slot by ID
}

// rows is a compressed row index: row k holds vals[off[k]:off[k+1]].
type rows struct{ off, vals []int32 }

// row returns row k, capped so that an append to it copies instead of
// writing into row k+1.
func (r rows) row(k int) []int32 { return r.vals[r.off[k]:r.off[k+1]:r.off[k+1]] }

// groupRows groups the indices i with keys[i] ≥ 0 into one ascending
// row per key, in a single counting pass.
func groupRows(n int, keys []int32) rows {
	r := rows{off: make([]int32, n+2)}
	for _, k := range keys {
		if k >= 0 {
			r.off[k+2]++
		}
	}
	for k := 2; k < n+2; k++ {
		r.off[k] += r.off[k-1]
	}
	r.vals = make([]int32, r.off[n+1])
	for i, k := range keys {
		if k >= 0 {
			r.vals[r.off[k+1]] = int32(i)
			r.off[k+1]++
		}
	}
	r.off = r.off[:n+1]
	return r
}

// Len returns the number of slots.
func (t *ActionTable) Len() int { return 2*t.Transfers + len(t.notifyFrom) }

// Action returns the action value of a slot.
func (t *ActionTable) Action(s int) Action {
	ps := t.problem.Parties
	switch {
	case s >= 2*t.Transfers:
		k := s - 2*t.Transfers
		return Notify(ps[t.notifyFrom[k]].ID, ps[t.notifyTo[k]].ID)
	case s >= t.Transfers:
		return t.Action(s - t.Transfers).Compensation()
	case t.Give[s]:
		src, dst := t.Src[s], t.Dst[s]
		return Give(ps[t.CellParty[src]].ID, ps[t.CellParty[dst]].ID, t.CellItem[src])
	default:
		return Pay(ps[t.Src[s]].ID, ps[t.Dst[s]].ID, t.Cash[s])
	}
}

// Endpoints resolves transfer slot s: its forward slot and the holding
// indices (party slots for a pay, cells for a give) its asset leaves and
// enters.
func (t *ActionTable) Endpoints(s int) (fwd, from, to int32) {
	if s < t.Transfers {
		return int32(s), t.Src[s], t.Dst[s]
	}
	fwd = int32(s - t.Transfers)
	return fwd, t.Dst[fwd], t.Src[fwd]
}

// Parties returns the party slots of slot s's sender and receiver: the
// mover and the receiver of a transfer's asset, the notifier and the
// notified party of a notify.
func (t *ActionTable) Parties(s int) (from, to int32) {
	if k := s - 2*t.Transfers; k >= 0 {
		return t.notifyFrom[k], t.notifyTo[k]
	}
	fwd, from, to := t.Endpoints(s)
	if t.Give[fwd] {
		return t.CellParty[from], t.CellParty[to]
	}
	return from, to
}

// Notify returns the slot of the notify exchange ei's trusted component
// sends its principal.
func (t *ActionTable) Notify(ei int) int32 { return t.notify[ei] }

// Slot returns the slot of an action, or false when the action is not
// one of the problem's own. It resolves the action's parties through the
// party index, then searches the exchanges between the two and the
// indemnity offers. It is the one way from an Action to a slot, for
// actions that arrive from outside a plan: everything a plan or a
// simulation derives from the table carries slots already.
func (t *ActionTable) Slot(a Action) (int, bool) {
	fi, ok := t.parties[a.From]
	if !ok {
		return 0, false
	}
	ti, ok := t.parties[a.To]
	if !ok {
		return 0, false
	}
	from, to := int32(fi), int32(ti)
	switch {
	case a.Kind == ActionNotify && !a.Inverse && a.Item == "" && a.Amount == 0:
		if ei := t.firstBetween(to, from, len(t.notify)); ei >= 0 {
			return int(t.notify[ei]), true
		}
		return 0, false
	case a.Kind == ActionGive && a.Amount == 0, a.Kind == ActionPay && a.Item == "":
	default:
		return 0, false // no slot holds a malformed action
	}
	s := int32(-1)
	for _, ei := range t.between(from, to) {
		if s >= 0 {
			break
		}
		s = t.find(t.Deposits(int(ei)), a, from, to)
	}
	for _, ei := range t.between(to, from) {
		if s >= 0 {
			break
		}
		s = t.find(t.Receipts(int(ei)), a, from, to)
	}
	if s < 0 {
		s = t.find(t.Post, a, from, to)
	}
	if s < 0 {
		s = t.find(t.Payout, a, from, to)
	}
	switch {
	case s < 0:
		return 0, false
	case a.Inverse:
		return int(s) + t.Transfers, true
	default:
		return int(s), true
	}
}

// find returns the forward slot among slots that moves what transfer a
// moves from party slot from to party slot to, or -1.
func (t *ActionTable) find(slots []int32, a Action, from, to int32) int32 {
	for _, s := range slots {
		switch {
		case s < 0 || t.Give[s] != (a.Kind == ActionGive):
		case t.Give[s]:
			src, dst := t.Src[s], t.Dst[s]
			if t.CellItem[src] == a.Item && t.CellParty[src] == from && t.CellParty[dst] == to {
				return s
			}
		case t.Cash[s] == a.Amount && t.Src[s] == from && t.Dst[s] == to:
			return s
		}
	}
	return -1
}

// between returns whichever of the principal's own exchanges and the
// trusted component's exchanges is shorter: a superset, ascending, of
// the exchanges between the two.
func (t *ActionTable) between(principal, trusted int32) []int32 {
	if principal < 0 || trusted < 0 {
		return nil
	}
	own, at := t.own.row(int(principal)), t.at.row(int(trusted))
	if len(own) < len(at) {
		return own
	}
	return at
}

// firstBetween returns the first exchange below limit between the
// principal and the trusted component, or -1.
func (t *ActionTable) firstBetween(principal, trusted int32, limit int) int {
	for _, ei := range t.between(principal, trusted) {
		if int(ei) >= limit {
			break
		}
		if t.Principal[ei] == principal && t.Trusted[ei] == trusted {
			return int(ei)
		}
	}
	return -1
}

// Collateral returns indemnity offer oi's amount: its stated Amount,
// or RequiredIndemnity of the exchange it covers when that is zero.
func (t *ActionTable) Collateral(oi int) Money { return t.collateral[oi] }

// SelfInsured reports SelfInsured of indemnity offer oi.
func (t *ActionTable) SelfInsured(oi int) bool { return t.selfInsured[oi] }

// PartySlot returns the party's index in Problem.Parties.
func (t *ActionTable) PartySlot(id PartyID) (int, bool) {
	i, ok := t.parties[id]
	return i, ok
}

// Deposits returns exchange ei's deposit slots, in DepositActions order.
func (t *ActionTable) Deposits(ei int) []int32 { return t.deposits.row(ei) }

// Receipts returns exchange ei's receipt slots, in ReceiptActions order.
func (t *ActionTable) Receipts(ei int) []int32 { return t.receipts.row(ei) }

// Own returns the exchanges the party in slot party is the principal of.
func (t *ActionTable) Own(party int) []int32 { return t.own.row(party) }

// At returns the exchanges the party in slot party is the trusted
// component of.
func (t *ActionTable) At(party int) []int32 { return t.at.row(party) }

// Rest returns the own exchanges of the party in slot party that no
// indemnity offer splits out: its unsplit all-or-nothing group, which
// conjoins when it holds two or more (Section 6).
func (t *ActionTable) Rest(party int) []int32 { return t.rest.row(party) }

// Degree returns the number of exchanges the party in slot party takes
// part in, on either side.
func (t *ActionTable) Degree(party int) int {
	n := len(t.own.row(party)) + len(t.at.row(party))
	for _, ei := range t.own.row(party) {
		if t.Trusted[ei] == int32(party) {
			n-- // counted in both rows
		}
	}
	return n
}

// principalsAt appends to buf the distinct principals of the exchanges
// at party slot k, in first-appearance order. seen is a scratch array
// over party slots: an entry equal to k+1 marks a principal already
// appended, so one array serves every k of a pass.
func (t *ActionTable) principalsAt(buf []int32, k int, seen []int32) []int32 {
	for _, ei := range t.at.row(k) {
		if pr := t.Principal[ei]; pr >= 0 && seen[pr] != int32(k+1) {
			seen[pr] = int32(k + 1)
			buf = append(buf, pr)
		}
	}
	return buf
}

// OffersVia returns, ascending, the indemnity offers with a post whose
// collateral the party in slot party holds.
func (t *ActionTable) OffersVia(party int) []int32 {
	if t.via.off == nil { // a problem without offers builds no row
		return nil
	}
	return t.via.row(party)
}

// Cells returns the party's cells.
func (t *ActionTable) Cells(party int) []int32 { return t.cellsOf.row(party) }

// Cell returns the cell holding the party's count of item, or false when
// no exchange moves item through the party.
func (t *ActionTable) Cell(party int, item ItemID) (int, bool) {
	ci, ok := t.cells[cellKey{int32(party), item}]
	return int(ci), ok
}

// cellKey names a cell while the table is built.
type cellKey struct {
	party int32
	item  ItemID
}

// tableBuilder interns the problem's actions. Two actions can only be
// equal if they run between the same two parties, so interning compares
// a new action with the earlier ones between its parties instead of
// hashing it.
type tableBuilder struct {
	t *ActionTable
}

func (b *tableBuilder) cell(party int32, item ItemID) int32 {
	t := b.t
	k := cellKey{party, item}
	if ci, ok := t.cells[k]; ok {
		return ci
	}
	ci := int32(len(t.CellParty))
	t.cells[k] = ci
	t.CellParty = append(t.CellParty, party)
	t.CellItem = append(t.CellItem, item)
	return ci
}

// intern returns the slot of transfer a from party slot from to party
// slot to: an equal transfer in the rows of the exchanges below `below`
// between principal and trusted, or among extra, else a new slot.
func (b *tableBuilder) intern(a Action, from, to int32, r rows, principal, trusted int32, below int, extra []int32) int32 {
	t := b.t
	for _, ej := range t.between(principal, trusted) {
		if int(ej) >= below {
			break
		}
		if t.Principal[ej] == principal && t.Trusted[ej] == trusted {
			if s := t.find(r.row(int(ej)), a, from, to); s >= 0 {
				return s
			}
		}
	}
	if s := t.find(extra, a, from, to); s >= 0 {
		return s
	}
	s := int32(len(t.Src))
	give := a.Kind == ActionGive
	if give {
		from, to = b.cell(from, a.Item), b.cell(to, a.Item)
	}
	t.Src = append(t.Src, from)
	t.Dst = append(t.Dst, to)
	t.Give = append(t.Give, give)
	t.Cash = append(t.Cash, a.Amount)
	return s
}

// buildActionTable builds the table in one pass over the exchanges,
// interning each one's DepositActions and ReceiptActions, and one over
// the indemnity offers; the per-party rows, personas and status-quo
// holdings follow from the slots.
func buildActionTable(p *Problem) *ActionTable {
	nEx, nParty := len(p.Exchanges), len(p.Parties)
	parties := make(map[PartyID]int, nParty)
	for i, pa := range p.Parties {
		parties[pa.ID] = i
	}
	slotOf := func(id PartyID) int32 {
		if i, ok := parties[id]; ok {
			return int32(i)
		}
		return -1
	}
	nDep, nRec := 0, 0
	for _, e := range p.Exchanges {
		nDep += transfers(e.Gives)
		nRec += transfers(e.Gets)
	}
	nAct := nDep + nRec + 2*len(p.Indemnities)
	t := &ActionTable{
		Src:       make([]int32, 0, nAct),
		Dst:       make([]int32, 0, nAct),
		Give:      make([]bool, 0, nAct),
		Cash:      make([]Money, 0, nAct),
		Principal: make([]int32, nEx),
		Trusted:   make([]int32, nEx),
		notify:    make([]int32, nEx),
		AtPersona: make([]bool, nEx),
		split:     make([]bool, nEx),
		Persona:   make([]int32, nParty),
		InitCash:  make([]Money, nParty),
		cells:     make(map[cellKey]int32, nAct),
		problem:   p,
		parties:   parties,
	}
	b := &tableBuilder{t: t}
	for ei, e := range p.Exchanges {
		t.Principal[ei], t.Trusted[ei] = slotOf(e.Principal), slotOf(e.Trusted)
		if pr := t.Principal[ei]; pr >= 0 {
			t.InitCash[pr] += e.Gives.Amount // each principal's Gives total, for now
		}
	}
	t.own = groupRows(nParty, t.Principal)
	t.at = groupRows(nParty, t.Trusted)

	dep := rows{off: make([]int32, nEx+1), vals: make([]int32, 0, nDep)}
	rec := rows{off: make([]int32, nEx+1), vals: make([]int32, 0, nRec)}
	for ei, e := range p.Exchanges {
		pr, tr := t.Principal[ei], t.Trusted[ei]
		for _, a := range DepositActions(e) {
			dep.vals = append(dep.vals, b.intern(a, pr, tr, dep, pr, tr, ei, dep.vals[dep.off[ei]:]))
		}
		for _, a := range ReceiptActions(e) {
			rec.vals = append(rec.vals, b.intern(a, tr, pr, rec, pr, tr, ei, rec.vals[rec.off[ei]:]))
		}
		dep.off[ei+1], rec.off[ei+1] = int32(len(dep.vals)), int32(len(rec.vals))
		if first := t.firstBetween(pr, tr, ei); first >= 0 {
			t.notify[ei] = t.notify[first]
		} else {
			t.notify[ei] = int32(len(t.notifyFrom))
			t.notifyFrom = append(t.notifyFrom, tr)
			t.notifyTo = append(t.notifyTo, pr)
		}
	}
	t.deposits, t.receipts = dep, rec

	nOff := len(p.Indemnities)
	t.Post, t.Payout = make([]int32, nOff), make([]int32, nOff)
	t.collateral, t.offerBy = make([]Money, nOff), make([]int32, nOff)
	t.selfInsured = make([]bool, nOff)
	posts, payouts := make(map[[2]int32][]int32), make(map[[2]int32][]int32)
	viaKeys := make([]int32, nOff)
	for oi, off := range p.Indemnities {
		t.Post[oi], t.Payout[oi], viaKeys[oi] = -1, -1, -1
		t.offerBy[oi] = slotOf(off.By)
		t.collateral[oi] = off.Amount
		if off.Covers < 0 || off.Covers >= nEx {
			continue
		}
		t.split[off.Covers] = true
		by, via, to := t.offerBy[oi], slotOf(off.Via), t.Principal[off.Covers]
		if off.Amount == 0 && to >= 0 {
			// RequiredIndemnity: the protected principal's other Gives.
			t.collateral[oi] = t.InitCash[to] - p.Exchanges[off.Covers].Gives.Amount
		}
		amount := t.collateral[oi]
		t.selfInsured[oi] = t.selfInsures(by, via, p.Exchanges[off.Covers].Gets.Items)
		if by < 0 || via < 0 || to < 0 {
			continue
		}
		// A post can equal a deposit of the offerer at the holder, or an
		// earlier post between the same two parties; a payout a receipt
		// of the protected principal there, or an earlier payout.
		pk, xk := [2]int32{by, via}, [2]int32{via, to}
		t.Post[oi] = b.intern(Pay(off.By, off.Via, amount), by, via, dep, by, via, nEx, posts[pk])
		posts[pk] = append(posts[pk], t.Post[oi])
		viaKeys[oi] = via
		payout := Pay(off.Via, p.Exchanges[off.Covers].Principal, amount)
		t.Payout[oi] = b.intern(payout, via, to, rec, to, via, nEx, payouts[xk])
		payouts[xk] = append(payouts[xk], t.Payout[oi])
	}
	t.Transfers = len(t.Src)
	for i := range t.notify {
		t.notify[i] += int32(2 * t.Transfers)
	}

	// Per-party adjacency, personas and the status-quo holdings.
	restKeys := make([]int32, nEx)
	for ei := range restKeys {
		restKeys[ei] = t.Principal[ei]
		if t.split[ei] {
			restKeys[ei] = -1
		}
	}
	t.rest = groupRows(nParty, restKeys)
	seen := make([]int32, nParty)
	var adj []int32
	var ids []PartyID
	for k := range t.Persona {
		t.Persona[k] = -1
		adj = t.principalsAt(adj[:0], k, seen)
		ids = ids[:0]
		for _, q := range adj {
			ids = append(ids, p.Parties[q].ID)
		}
		if q, ok := personaFrom(p, ids); ok {
			t.Persona[k] = slotOf(q)
		}
	}
	for ei, tr := range t.Trusted {
		t.AtPersona[ei] = tr >= 0 && t.Persona[tr] >= 0 && t.Persona[tr] == t.Principal[ei]
	}
	for i, pa := range p.Parties {
		if pa.IsTrusted() {
			t.Trusteds = append(t.Trusteds, int32(i))
		}
	}
	pays, gives := make([]int32, t.Transfers), make([]int32, t.Transfers)
	for s := range pays {
		pays[s], gives[s] = t.Dst[s], -1
		if t.Give[s] {
			pays[s], gives[s] = -1, t.Dst[s]
		}
	}
	t.inPays = groupRows(nParty, pays)
	t.inGives = groupRows(len(t.CellParty), gives)
	t.cellsOf = groupRows(nParty, t.CellParty)
	if nOff > 0 {
		t.via = groupRows(nParty, viaKeys)
	}
	acquired := t.acquiredCells()
	t.redRow(acquired)
	t.initHoldings(acquired)
	return t
}

// acquiredCells marks the cells some exchange delivers an item into.
func (t *ActionTable) acquiredCells() []bool {
	acquired := make([]bool, len(t.CellParty))
	for ei := range t.problem.Exchanges {
		for _, r := range t.Receipts(ei) {
			if t.Give[r] {
				acquired[t.Dst[r]] = true
			}
		}
	}
	return acquired
}

// redRow fills Red by the three red rules of Section 4.1, over the own
// exchanges of every principal with at least two exchanges (with one
// there is no conjunction to attach a red edge to):
//
//  1. Resale: the principal gives an item on the exchange that it
//     obtains on one of its exchanges — the sale is red ("a broker will
//     commit to obtain a document only if it has a committed buyer").
//     An item's cell at the principal is in acquired exactly then.
//  2. Poor principal (Section 5's poor broker): a LimitedFunds principal
//     whose endowment cannot cover its total outgoing payments must
//     secure its incoming payments first, so its paying exchanges are
//     red too. InitCash still holds each principal's Gives total here.
//  3. Explicit RedOverride on the exchange.
func (t *ActionTable) redRow(acquired []bool) {
	p := t.problem
	t.Red = make([]bool, len(p.Exchanges))
	for k, pa := range p.Parties {
		own := t.own.row(k)
		if len(own) == 0 || t.Degree(k) < 2 {
			continue
		}
		poor := pa.LimitedFunds && pa.Endowment < t.InitCash[k]
		for _, ei := range own {
			e := &p.Exchanges[ei]
			red := e.RedOverride || (poor && e.Gives.Amount > 0)
			for _, d := range t.deposits.row(int(ei)) {
				red = red || (t.Give[d] && acquired[t.Src[d]])
			}
			t.Red[ei] = red
		}
	}
}

// selfInsures is SelfInsured over the rows: whether the exchanges of
// party slot by at party slot via give every item of gets.
func (t *ActionTable) selfInsures(by, via int32, gets []ItemID) bool {
	if len(gets) == 0 {
		return false
	}
	ps := t.problem.Exchanges
	for _, it := range gets {
		if !slices.ContainsFunc(t.between(by, via), func(ei int32) bool {
			return t.Principal[ei] == by && t.Trusted[ei] == via && slices.Contains(ps[ei].Gives.Items, it)
		}) {
			return false
		}
	}
	return true
}

// transfers returns the number of transfers that move bundle b: its pay,
// if any, and one give per item.
func transfers(b Bundle) int {
	if b.Amount > 0 {
		return len(b.Items) + 1
	}
	return len(b.Items)
}

// initHoldings fills InitCash and InitItems with the status quo: a
// principal owns each item it gives on some exchange but acquires on
// none, a LimitedFunds party its endowment, any other principal the money
// its deposits and indemnity offers could ever need; trusted components
// start empty (Section 2.5). InitCash arrives holding each principal's
// Gives total.
func (t *ActionTable) initHoldings(acquired []bool) {
	p := t.problem
	t.InitItems = make([]int32, len(t.CellParty))
	for ei := range p.Exchanges {
		for _, d := range t.Deposits(ei) {
			if t.Give[d] && !acquired[t.Src[d]] {
				t.InitItems[t.Src[d]]++
			}
		}
	}
	for oi, by := range t.offerBy {
		if by >= 0 {
			t.InitCash[by] += t.collateral[oi]
		}
	}
	for i, pa := range p.Parties {
		switch {
		case pa.IsTrusted():
			t.InitCash[i] = 0
		case pa.LimitedFunds:
			t.InitCash[i] = pa.Endowment
		}
	}
	for ci, party := range t.CellParty {
		if party < 0 || p.Parties[party].IsTrusted() {
			t.InitItems[ci] = 0 // trusted components and unknown parties start empty
		}
	}
}

// atRisk reports whether some deposit of exchange ei is in place.
func (t *ActionTable) atRisk(st State, ei int32) bool {
	for _, d := range t.deposits.row(int(ei)) {
		if st.Live(int(d)) {
			return true
		}
	}
	return false
}

// received reports whether the party has irrevocably received every
// asset the exchanges of group promise it: their Gets, summed, against
// the forward transfers into its holdings whose compensation has not
// occurred.
func (t *ActionTable) received(st State, party int, group []int32) bool {
	var want Money
	for _, ei := range group {
		want += t.problem.Exchanges[ei].Gets.Amount
	}
	if want > 0 {
		var got Money
		for _, s := range t.inPays.row(party) {
			if st.Live(int(s)) {
				got += t.Cash[s]
			}
		}
		if got < want {
			return false
		}
	}
	// Each distinct cell is counted at its first receipt in the group.
	for gi, ei := range group {
		recs := t.receipts.row(int(ei))
		for ri, r := range recs {
			if !t.Give[r] || t.seenCell(group[:gi], recs[:ri], t.Dst[r]) {
				continue
			}
			need := 0
			for _, ej := range group[gi:] {
				for _, r2 := range t.receipts.row(int(ej)) {
					if t.Give[r2] && t.Dst[r2] == t.Dst[r] {
						need++
					}
				}
			}
			for _, s := range t.inGives.row(int(t.Dst[r])) {
				if st.Live(int(s)) {
					need--
				}
			}
			if need > 0 {
				return false
			}
		}
	}
	return true
}

// seenCell reports whether a give receipt of the earlier exchanges, or
// an earlier receipt of the current one, lands in cell.
func (t *ActionTable) seenCell(earlier, recs []int32, cell int32) bool {
	for _, ei := range earlier {
		for _, r := range t.receipts.row(int(ei)) {
			if t.Give[r] && t.Dst[r] == cell {
				return true
			}
		}
	}
	for _, r := range recs {
		if t.Give[r] && t.Dst[r] == cell {
			return true
		}
	}
	return false
}

// Acceptable is Acceptable (assets false) or AcceptableAssets (assets
// true) for the party in slot party, over a state of the table.
func (t *ActionTable) Acceptable(party int, st State, assets bool) bool {
	var one [1]int32
	for _, ei := range t.own.row(party) {
		if !assets && !t.split[ei] {
			continue
		}
		one[0] = ei
		if t.atRisk(st, ei) && !t.received(st, party, one[:]) {
			return false
		}
	}
	if !assets {
		rest := t.rest.row(party)
		for _, ei := range rest {
			if t.atRisk(st, ei) {
				if !t.received(st, party, rest) {
					return false
				}
				break
			}
		}
	}
	for oi, off := range t.problem.Indemnities {
		if t.Payout[oi] < 0 || t.collateral[oi] == 0 {
			continue
		}
		forfeited := st.HasSlot(int(t.Payout[oi]))
		if int(t.Principal[off.Covers]) == party && !forfeited && t.uncompensated(st, party, off.Covers) {
			return false
		}
		// A self-insured offerer (the seller controlling delivery of the
		// covered goods) finds a forfeited collateral unacceptable: an
		// honest seller can always avoid the forfeit by delivering, so a
		// forfeit marks a genuine loss.
		if int(t.offerBy[oi]) == party && t.selfInsured[oi] && forfeited {
			return false
		}
	}
	return true
}

// uncompensated reports whether the party, protected by collateral on
// exchange covers, committed to a sibling exchange while the covered
// piece did not arrive — the case the payout must compensate.
func (t *ActionTable) uncompensated(st State, party int, covers int) bool {
	one := [1]int32{int32(covers)}
	if t.received(st, party, one[:]) {
		return false
	}
	for _, ei := range t.own.row(party) {
		if int(ei) != covers && t.atRisk(st, ei) {
			return true
		}
	}
	return false
}
