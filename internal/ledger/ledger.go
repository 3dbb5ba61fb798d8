package ledger

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"trustseq/internal/model"
	"trustseq/internal/slab"
)

// Ledger is the account book. Create with New, or with NewIndexed to
// share a caller's party and item slot space.
//
// Internally the book is sharded by principal: party and item IDs are
// interned into dense slots, cash lives in one flat slab indexed by
// party slot, and item holdings live in a single packed (party, item)
// count table. Memory per principal is therefore flat — one Money cell,
// one small held-items list, and a fraction of two probe tables — and a
// funded transfer between known accounts allocates only when it gives
// an account its first unit of some item.
type Ledger struct {
	parties *slab.Index[model.PartyID]
	items   *slab.Index[model.ItemID]
	cash    []model.Money // by party slot
	counts  *slab.Counts  // PairKey(party slot, item slot) → count
	held    [][]int32     // by party slot: item slots ever credited

	totalCash model.Money
	openDocs  []int64 // by item slot: opening count, conservation target
}

// New builds a ledger with the given opening balances. The opening
// snapshot fixes the conservation invariants. Parties and items are
// interned in sorted order, so slots — and with them which document
// Audit names first when several fail conservation — never depend on
// map iteration order.
func New(initial map[model.PartyID]*model.Holding) *Ledger {
	return NewIndexed(slab.NewIndex[model.PartyID](len(initial)), slab.NewIndex[model.ItemID](8), initial)
}

// NewIndexed builds a ledger over the caller's party and item indexes:
// party slot p of parties is the ledger's account p, and item slot i of
// items its document i, so a caller that resolved an ID against either
// index once can move assets by slot (TransferAt) without hashing it
// again. The indexes are shared, not copied: the ledger's accounts are
// the parties interned when it is built. Opening parties or items the
// indexes lack are interned first, in sorted order.
func NewIndexed(parties *slab.Index[model.PartyID], items *slab.Index[model.ItemID], initial map[model.PartyID]*model.Holding) *Ledger {
	var newParties []model.PartyID
	var newItems []model.ItemID
	entries := 0
	for id, h := range initial {
		if _, ok := parties.Lookup(id); !ok {
			newParties = append(newParties, id)
		}
		for it, n := range h.Items {
			if n == 0 {
				continue
			}
			entries++
			if _, ok := items.Lookup(it); !ok {
				newItems = append(newItems, it)
			}
		}
	}
	slices.Sort(newParties)
	for _, id := range newParties {
		parties.Intern(id)
	}
	slices.Sort(newItems)
	for _, it := range newItems {
		items.Intern(it)
	}
	l := &Ledger{
		parties:  parties,
		items:    items,
		cash:     make([]model.Money, parties.Len()),
		held:     make([][]int32, parties.Len()),
		counts:   slab.NewCounts(entries),
		openDocs: make([]int64, items.Len()),
	}
	for id, h := range initial {
		p, _ := parties.Lookup(id)
		l.cash[p] = h.Cash
		l.totalCash += h.Cash
		for it, n := range h.Items {
			if n == 0 {
				continue
			}
			i, _ := items.Lookup(it)
			l.credit(p, i, int64(n))
			l.openDocs[i] += int64(n)
		}
	}
	return l
}

// ForProblem builds a ledger from a problem's inferred initial holdings.
func ForProblem(p *model.Problem) *Ledger {
	return New(model.InitialHoldings(p))
}

// account looks up a party's slot, reporting false for a party the
// ledger has no account for — including one interned into a shared
// index after the ledger was built.
func (l *Ledger) account(id model.PartyID) (int32, bool) {
	p, ok := l.parties.Lookup(id)
	return p, ok && int(p) < len(l.cash)
}

// itemSlot interns an item ID, growing the opening-count slab.
func (l *Ledger) itemSlot(it model.ItemID) int32 {
	i := l.items.Intern(it)
	for int(i) >= len(l.openDocs) {
		l.openDocs = append(l.openDocs, 0)
	}
	return i
}

// credit adds n of an item to a party, recording first-ever possession
// in the held list so Balance can reconstruct holdings without a scan
// of the whole count table.
func (l *Ledger) credit(p, i int32, n int64) {
	if _, created := l.counts.Upsert(slab.PairKey(p, i), n); created {
		l.held[p] = append(l.held[p], i)
	}
}

// contains reports whether the party at slot p covers the bundle.
// Bundle items are sorted, so multiplicity is the length of an equal
// run.
func (l *Ledger) contains(p int32, b model.Bundle) bool {
	if l.cash[p] < b.Amount {
		return false
	}
	for k := 0; k < len(b.Items); {
		run := k + 1
		for run < len(b.Items) && b.Items[run] == b.Items[k] {
			run++
		}
		i, ok := l.items.Lookup(b.Items[k])
		if !ok || l.counts.Get(slab.PairKey(p, i)) < int64(run-k) {
			return false
		}
		k = run
	}
	return true
}

// holding materializes the party at slot p as a model.Holding, skipping
// zero-count items to match Holding.Remove's delete-at-zero behaviour.
func (l *Ledger) holding(p int32) *model.Holding {
	h := &model.Holding{Cash: l.cash[p], Items: make(map[model.ItemID]int, len(l.held[p]))}
	for _, i := range l.held[p] {
		if n := l.counts.Get(slab.PairKey(p, i)); n != 0 {
			h.Items[l.items.Key(i)] = int(n)
		}
	}
	return h
}

// Balance returns a copy of a party's holding.
func (l *Ledger) Balance(id model.PartyID) *model.Holding {
	p, ok := l.account(id)
	if !ok {
		return model.NewHolding()
	}
	return l.holding(p)
}

// CanPay reports whether the party holds the bundle.
func (l *Ledger) CanPay(id model.PartyID, b model.Bundle) bool {
	p, ok := l.account(id)
	return ok && l.contains(p, b)
}

// Transfer moves a bundle between accounts. It fails without mutation
// when the payer cannot fund it.
func (l *Ledger) Transfer(from, to model.PartyID, b model.Bundle) error {
	if b.IsEmpty() {
		return nil
	}
	src, ok := l.account(from)
	if !ok {
		return fmt.Errorf("ledger: unknown account %s", from)
	}
	dst, ok := l.account(to)
	if !ok {
		return fmt.Errorf("ledger: unknown account %s", to)
	}
	if !l.contains(src, b) {
		// Cold path: materialize the holding only to produce the
		// canonical model error.
		err := l.holding(src).Remove(b)
		return fmt.Errorf("ledger: %s cannot pay %s: %w", from, b, err)
	}
	l.cash[src] -= b.Amount
	l.cash[dst] += b.Amount
	for _, it := range b.Items {
		i := l.itemSlot(it)
		l.counts.Add(slab.PairKey(src, i), -1)
		l.credit(dst, i, 1)
	}
	return nil
}

// TransferAt is Transfer for a one-action bundle between accounts
// resolved to slots: src pays dst amount in cash plus, when item is
// non-negative, one unit of the document at that item slot. It fails
// without mutation, with Transfer's error text, when the payer cannot
// fund it, and hashes no ID on its funded path.
func (l *Ledger) TransferAt(src, dst int32, amount model.Money, item int32) error {
	if amount == 0 && item < 0 {
		return nil
	}
	for _, p := range [2]int32{src, dst} {
		if p < 0 || int(p) >= len(l.cash) {
			return fmt.Errorf("ledger: unknown account slot %d", p)
		}
	}
	if l.cash[src] < amount || (item >= 0 && l.counts.Get(slab.PairKey(src, item)) < 1) {
		b := model.Cash(amount)
		if item >= 0 {
			b.Items = []model.ItemID{l.items.Key(item)}
		}
		err := l.holding(src).Remove(b)
		return fmt.Errorf("ledger: %s cannot pay %s: %w", l.parties.Key(src), b, err)
	}
	l.cash[src] -= amount
	l.cash[dst] += amount
	if item >= 0 {
		l.counts.Add(slab.PairKey(src, item), -1)
		l.credit(dst, item, 1)
	}
	return nil
}

// ItemSlot returns a document's item slot, reporting false for a
// document the ledger has no slot for.
func (l *Ledger) ItemSlot(it model.ItemID) (int32, bool) {
	return l.items.Lookup(it)
}

// HoldingAt returns a copy of the holding of the account at party slot
// p, or an empty holding when p names no account.
func (l *Ledger) HoldingAt(p int32) *model.Holding {
	if p < 0 || int(p) >= len(l.cash) {
		return model.NewHolding()
	}
	return l.holding(p)
}

// Audit checks conservation: total money and per-document counts match
// the opening snapshot exactly.
func (l *Ledger) Audit() error {
	var cash model.Money
	for _, c := range l.cash {
		cash += c
	}
	if cash != l.totalCash {
		return fmt.Errorf("ledger: money not conserved: %v != opening %v", cash, l.totalCash)
	}
	docs := make([]int64, len(l.openDocs))
	l.counts.Range(func(key uint64, val int64) {
		docs[uint32(key)] += val
	})
	for i, n := range docs {
		if n == l.openDocs[i] {
			continue
		}
		it := l.items.Key(int32(i))
		if l.openDocs[i] == 0 {
			return fmt.Errorf("ledger: document %s appeared from nowhere (%d)", it, n)
		}
		return fmt.Errorf("ledger: document %s count %d != opening %d", it, n, l.openDocs[i])
	}
	return nil
}

// String renders all balances deterministically.
func (l *Ledger) String() string {
	slots := make([]int32, len(l.cash))
	for p := range slots {
		slots[p] = int32(p)
	}
	sort.Slice(slots, func(i, j int) bool { return l.parties.Key(slots[i]) < l.parties.Key(slots[j]) })
	var b strings.Builder
	for _, p := range slots {
		fmt.Fprintf(&b, "%s: %s\n", l.parties.Key(p), l.holding(p))
	}
	return b.String()
}
