package ledger

import (
	"fmt"
	"sort"
	"strings"

	"trustseq/internal/model"
)

// TransitID names the transit account: the one account the problem
// does not define, holding what is in flight between a send and its
// delivery.
const TransitID = model.PartyID("__transit")

// Ledger is the account book of one problem, laid out in the slot space
// of its action table: cash by party slot, with the transit account in
// the slot after the problem's last party, and documents by cell — the
// (party, item) pairs an exchange moves. The documents in flight are
// counted per cell too: InFlight(c) is the transit account's count of
// documents on their way into cell c. The book is flat arrays sized
// from the table, so a funded transfer allocates nothing.
type Ledger struct {
	t       *model.ActionTable
	parties []model.Party
	cash    []model.Money // by party slot; the transit account is the last
	docs    []int32       // by cell, then in flight into each cell
	cells   int32         // the table's cell count

	totalCash model.Money
}

// New opens the book of a problem at its status quo: the action table's
// InitCash per party and InitItems per cell, the transit account empty.
// The opening fixes the conservation invariants Audit checks.
func New(p *model.Compiled) *Ledger {
	t := p.ActionTable()
	cells := len(t.CellItem)
	l := &Ledger{
		t:       t,
		parties: p.Parties,
		cash:    make([]model.Money, len(p.Parties)+1),
		docs:    make([]int32, 2*cells),
		cells:   int32(cells),
	}
	copy(l.cash, t.InitCash)
	copy(l.docs, t.InitItems)
	for _, c := range t.InitCash {
		l.totalCash += c
	}
	return l
}

// Transit returns the transit account's party slot.
func (l *Ledger) Transit() int32 { return int32(len(l.cash) - 1) }

// InFlight returns the slot that counts documents in flight into cell,
// or -1 for no cell.
func (l *Ledger) InFlight(cell int32) int32 {
	if cell < 0 {
		return -1
	}
	return cell + l.cells
}

// name returns the ID of the account at party slot p.
func (l *Ledger) name(p int32) model.PartyID {
	if int(p) < len(l.parties) {
		return l.parties[p].ID
	}
	return TransitID
}

// item returns the document a cell, or an in-flight count, holds.
func (l *Ledger) item(cell int32) model.ItemID {
	return l.t.CellItem[cell%l.cells]
}

// holding materializes the account at party slot p as a model.Holding,
// skipping zero counts to match Holding.Remove's delete-at-zero
// behaviour.
func (l *Ledger) holding(p int32) *model.Holding {
	h := &model.Holding{Cash: l.cash[p], Items: make(map[model.ItemID]int)}
	if p == l.Transit() {
		for c, n := range l.docs[l.cells:] {
			if n != 0 {
				h.Items[l.t.CellItem[c]] += int(n)
			}
		}
		return h
	}
	for _, c := range l.t.Cells(int(p)) {
		if n := l.docs[c]; n != 0 {
			h.Items[l.t.CellItem[c]] = int(n)
		}
	}
	return h
}

// cannotPay is the error of an unfunded transfer: the canonical model
// error of removing the bundle from the payer's holding.
func (l *Ledger) cannotPay(p int32, b model.Bundle) error {
	return fmt.Errorf("ledger: %s cannot pay %s: %w", l.name(p), b, l.holding(p).Remove(b))
}

// Balance returns a copy of a party's holding, empty for a party the
// problem does not name.
func (l *Ledger) Balance(id model.PartyID) *model.Holding {
	p, ok := l.t.PartySlot(id)
	if !ok {
		return model.NewHolding()
	}
	return l.holding(int32(p))
}

// HoldingAt returns a copy of the holding of the account at party slot
// p, or an empty holding when p names no account.
func (l *Ledger) HoldingAt(p int32) *model.Holding {
	if p < 0 || int(p) >= len(l.cash) {
		return model.NewHolding()
	}
	return l.holding(p)
}

// Transfer moves a bundle between two of the problem's parties,
// resolving each through the action table. It fails without mutation
// when either party is unknown, when the payer cannot fund the bundle,
// or when no exchange moves one of its documents through the payee.
func (l *Ledger) Transfer(from, to model.PartyID, b model.Bundle) error {
	if b.IsEmpty() {
		return nil
	}
	src, ok := l.t.PartySlot(from)
	if !ok {
		return fmt.Errorf("ledger: unknown account %s", from)
	}
	dst, ok := l.t.PartySlot(to)
	if !ok {
		return fmt.Errorf("ledger: unknown account %s", to)
	}
	if l.cash[src] < b.Amount {
		return l.cannotPay(int32(src), b)
	}
	// Bundle items are sorted, so multiplicity is the length of an
	// equal run.
	for k := 0; k < len(b.Items); {
		run := k + 1
		for run < len(b.Items) && b.Items[run] == b.Items[k] {
			run++
		}
		c, ok := l.t.Cell(src, b.Items[k])
		if !ok || l.docs[c] < int32(run-k) {
			return l.cannotPay(int32(src), b)
		}
		if _, ok := l.t.Cell(dst, b.Items[k]); !ok {
			return fmt.Errorf("ledger: %s has no account for %s", to, b.Items[k])
		}
		k = run
	}
	l.cash[src] -= b.Amount
	l.cash[dst] += b.Amount
	for _, it := range b.Items {
		from, _ := l.t.Cell(src, it)
		into, _ := l.t.Cell(dst, it)
		l.docs[from]--
		l.docs[into]++
	}
	return nil
}

// TransferAt is Transfer by slot: the account at party slot src pays
// the one at dst amount in cash and, when from is non-negative, one
// document moves from cell from into cell into. The transit account's
// slot is Transit, and its cells are the InFlight counts. It fails
// without mutation, with Transfer's error text, when the payer cannot
// fund it, and hashes nothing.
func (l *Ledger) TransferAt(src, dst int32, amount model.Money, from, into int32) error {
	if amount == 0 && from < 0 {
		return nil
	}
	for _, p := range [2]int32{src, dst} {
		if p < 0 || int(p) >= len(l.cash) {
			return fmt.Errorf("ledger: unknown account slot %d", p)
		}
	}
	if from >= 0 {
		for _, c := range [2]int32{from, into} {
			if c < 0 || int(c) >= len(l.docs) {
				return fmt.Errorf("ledger: unknown cell %d", c)
			}
		}
	}
	if l.cash[src] < amount || (from >= 0 && l.docs[from] < 1) {
		b := model.Cash(amount)
		if from >= 0 {
			b.Items = []model.ItemID{l.item(from)}
		}
		return l.cannotPay(src, b)
	}
	l.cash[src] -= amount
	l.cash[dst] += amount
	if from >= 0 {
		l.docs[from]--
		l.docs[into]++
	}
	return nil
}

// Audit checks conservation: total money and the count of every
// document, held or in flight, match the opening. Documents are checked
// in the order of their first cell, so which one Audit names when
// several fail is the same on every run.
func (l *Ledger) Audit() error {
	var cash model.Money
	for _, c := range l.cash {
		cash += c
	}
	if cash != l.totalCash {
		return fmt.Errorf("ledger: money not conserved: %v != opening %v", cash, l.totalCash)
	}
	index := make(map[model.ItemID]int)
	var items []model.ItemID
	var open, now []int64
	for c, it := range l.t.CellItem {
		i, ok := index[it]
		if !ok {
			i = len(items)
			index[it] = i
			items = append(items, it)
			open, now = append(open, 0), append(now, 0)
		}
		open[i] += int64(l.t.InitItems[c])
		now[i] += int64(l.docs[c]) + int64(l.docs[int32(c)+l.cells])
	}
	for i, it := range items {
		switch {
		case now[i] == open[i]:
		case open[i] == 0:
			return fmt.Errorf("ledger: document %s appeared from nowhere (%d)", it, now[i])
		default:
			return fmt.Errorf("ledger: document %s count %d != opening %d", it, now[i], open[i])
		}
	}
	return nil
}

// String renders every account's balance, sorted by ID.
func (l *Ledger) String() string {
	slots := make([]int32, len(l.cash))
	for p := range slots {
		slots[p] = int32(p)
	}
	sort.Slice(slots, func(i, j int) bool { return l.name(slots[i]) < l.name(slots[j]) })
	var b strings.Builder
	for _, p := range slots {
		fmt.Fprintf(&b, "%s: %s\n", l.name(p), l.holding(p))
	}
	return b.String()
}
