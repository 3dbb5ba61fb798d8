package ledger

import (
	"fmt"
	"sort"
	"strings"

	"trustseq/internal/model"
	"trustseq/internal/slab"
)

// Ledger is the account book. Create with New.
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
// snapshot fixes the conservation invariants.
func New(initial map[model.PartyID]*model.Holding) *Ledger {
	l := &Ledger{
		parties: slab.NewIndex[model.PartyID](len(initial)),
		items:   slab.NewIndex[model.ItemID](8),
		cash:    make([]model.Money, 0, len(initial)),
		held:    make([][]int32, 0, len(initial)),
		counts:  slab.NewCounts(len(initial)),
	}
	for id, h := range initial {
		p := l.slot(id)
		l.cash[p] = h.Cash
		l.totalCash += h.Cash
		for it, n := range h.Items {
			if n == 0 {
				continue
			}
			l.credit(p, l.itemSlot(it), int64(n))
			l.openDocs[l.mustItem(it)] += int64(n)
		}
	}
	return l
}

// ForProblem builds a ledger from a problem's inferred initial holdings.
func ForProblem(p *model.Problem) *Ledger {
	return New(model.InitialHoldings(p))
}

// slot interns a party ID, growing the per-party slabs in lockstep.
func (l *Ledger) slot(id model.PartyID) int32 {
	p := l.parties.Intern(id)
	for int(p) >= len(l.cash) {
		l.cash = append(l.cash, 0)
		l.held = append(l.held, nil)
	}
	return p
}

// itemSlot interns an item ID, growing the opening-count slab.
func (l *Ledger) itemSlot(it model.ItemID) int32 {
	i := l.items.Intern(it)
	for int(i) >= len(l.openDocs) {
		l.openDocs = append(l.openDocs, 0)
	}
	return i
}

// mustItem looks up an item slot that itemSlot has already interned.
func (l *Ledger) mustItem(it model.ItemID) int32 {
	i, _ := l.items.Lookup(it)
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
	p, ok := l.parties.Lookup(id)
	if !ok {
		return model.NewHolding()
	}
	return l.holding(p)
}

// CanPay reports whether the party holds the bundle.
func (l *Ledger) CanPay(id model.PartyID, b model.Bundle) bool {
	p, ok := l.parties.Lookup(id)
	return ok && l.contains(p, b)
}

// Transfer moves a bundle between accounts. It fails without mutation
// when the payer cannot fund it.
func (l *Ledger) Transfer(from, to model.PartyID, b model.Bundle) error {
	if b.IsEmpty() {
		return nil
	}
	src, ok := l.parties.Lookup(from)
	if !ok {
		return fmt.Errorf("ledger: unknown account %s", from)
	}
	dst, ok := l.parties.Lookup(to)
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
	ids := make([]string, 0, l.parties.Len())
	for p := int32(0); p < int32(l.parties.Len()); p++ {
		ids = append(ids, string(l.parties.Key(p)))
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		p, _ := l.parties.Lookup(model.PartyID(id))
		fmt.Fprintf(&b, "%s: %s\n", id, l.holding(p))
	}
	return b.String()
}
