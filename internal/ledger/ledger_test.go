package ledger

import (
	"strings"
	"testing"
	"testing/quick"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// example1 is the ledger of the paper's Example 1: c holds $100, b $80,
// p the document, the trusted components nothing.
func example1(t testing.TB) *Ledger {
	t.Helper()
	p := paperex.Example1()
	return New(model.MustCompile(p))
}

// market is the ledger of a small generated market: six consumers buy
// one document each through their own broker from two producers.
func market(t testing.TB) *Ledger {
	t.Helper()
	p := gen.Population(6, 2, 10)
	return New(model.MustCompile(p))
}

// slots resolves a party and, when item is non-empty, its cell for item.
func slots(t testing.TB, l *Ledger, id model.PartyID, item model.ItemID) (party, cell int32) {
	t.Helper()
	p, ok := l.t.PartySlot(id)
	if !ok {
		t.Fatalf("no slot for %s", id)
	}
	if item == "" {
		return int32(p), -1
	}
	c, ok := l.t.Cell(p, item)
	if !ok {
		t.Fatalf("no cell for %s at %s", item, id)
	}
	return int32(p), int32(c)
}

func TestTransferAndBalance(t *testing.T) {
	t.Parallel()
	l := example1(t)
	if err := l.Transfer(paperex.Consumer, paperex.Trusted1, model.Cash(30)); err != nil {
		t.Fatalf("Transfer = %v", err)
	}
	if err := l.Transfer(paperex.Producer, paperex.Broker, model.Goods(paperex.Doc)); err != nil {
		t.Fatalf("Transfer = %v", err)
	}
	if got := l.Balance(paperex.Consumer); got.Cash != 70 || len(got.Items) != 0 {
		t.Errorf("c = %v", got)
	}
	if got := l.Balance(paperex.Trusted1); got.Cash != 30 {
		t.Errorf("t1 = %v", got)
	}
	if got := l.Balance(paperex.Producer); got.Items[paperex.Doc] != 0 {
		t.Errorf("p = %v", got)
	}
	if got := l.Balance(paperex.Broker); got.Cash != 80 || got.Items[paperex.Doc] != 1 {
		t.Errorf("b = %v", got)
	}
	if err := l.Audit(); err != nil {
		t.Errorf("Audit = %v", err)
	}
}

func TestTransferErrors(t *testing.T) {
	t.Parallel()
	l := example1(t)
	for _, tc := range []struct {
		from, to model.PartyID
		b        model.Bundle
		want     string
	}{
		{paperex.Consumer, paperex.Trusted1, model.Cash(101), "ledger: c cannot pay $101: "},
		{paperex.Broker, paperex.Trusted1, model.Goods(paperex.Doc), "ledger: b cannot pay "},
		{"ghost", paperex.Broker, model.Cash(1), "ledger: unknown account ghost"},
		{paperex.Consumer, "ghost", model.Cash(1), "ledger: unknown account ghost"},
	} {
		err := l.Transfer(tc.from, tc.to, tc.b)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Transfer(%s, %s, %v) = %v, want %q…", tc.from, tc.to, tc.b, err, tc.want)
		}
	}
	// No exchange moves d2 through c1: the market refuses to deliver it.
	m := market(t)
	if err := m.Transfer("s2", "c1", model.Goods("d2")); err == nil || err.Error() != "ledger: c1 has no account for d2" {
		t.Errorf("Transfer to a party with no cell = %v", err)
	}
	// Failed transfers never mutate.
	if got := l.Balance(paperex.Consumer).Cash; got != paperex.RetailPrice {
		t.Errorf("c mutated to %v", got)
	}
	if got := m.Balance("s2").Items["d2"]; got != 1 {
		t.Errorf("s2 mutated to %d of d2", got)
	}
	// Empty transfers are no-ops.
	if err := l.Transfer(paperex.Consumer, paperex.Broker, model.Bundle{}); err != nil {
		t.Errorf("empty transfer = %v", err)
	}
	if got := l.Balance(paperex.Broker).Cash; got != paperex.WholesalePrice {
		t.Errorf("b mutated to %v", got)
	}
}

// A funded transfer moves counts in place: replay and two-phase commit
// call Transfer once per move, so it must not allocate.
func TestTransferZeroAlloc(t *testing.T) {
	l := example1(t)
	b := model.Cash(1).With(paperex.Doc)
	if err := l.Transfer(paperex.Producer, paperex.Consumer, model.Goods(paperex.Doc)); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := l.Transfer(paperex.Consumer, paperex.Broker, b); err != nil {
			t.Fatal(err)
		}
		if err := l.Transfer(paperex.Broker, paperex.Consumer, b); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Transfer allocates %v allocs/op, want 0", avg)
	}
}

// TransferAt allocates nothing either, in flight or not: the simulator
// calls it twice per delivered transfer.
func TestTransferAtZeroAlloc(t *testing.T) {
	l := example1(t)
	p, pd := slots(t, l, paperex.Producer, paperex.Doc)
	t2, t2d := slots(t, l, paperex.Trusted2, paperex.Doc)
	transit, flight := l.Transit(), l.InFlight(t2d)
	avg := testing.AllocsPerRun(1000, func() {
		if err := l.TransferAt(p, transit, 0, pd, flight); err != nil {
			t.Fatal(err)
		}
		if err := l.TransferAt(transit, t2, 0, flight, t2d); err != nil {
			t.Fatal(err)
		}
		if err := l.TransferAt(t2, p, 0, t2d, pd); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("TransferAt allocates %v allocs/op, want 0", avg)
	}
}

func TestBalanceIsACopy(t *testing.T) {
	t.Parallel()
	l := example1(t)
	b := l.Balance(paperex.Producer)
	b.Add(model.Cash(1000).With(paperex.Doc))
	if got := l.Balance(paperex.Producer); got.Cash != 0 || got.Items[paperex.Doc] != 1 {
		t.Errorf("Balance leaked internal state: %v", got)
	}
	h := l.HoldingAt(l.Transit())
	h.Add(model.Cash(5))
	if !l.HoldingAt(l.Transit()).IsEmpty() {
		t.Errorf("HoldingAt leaked internal state")
	}
	if got := l.Balance("ghost"); !got.IsEmpty() {
		t.Errorf("ghost balance = %v", got)
	}
	if got := l.HoldingAt(-1); !got.IsEmpty() {
		t.Errorf("holding at slot -1 = %v", got)
	}
}

// The book opens at the action table's status quo.
func TestForProblem(t *testing.T) {
	t.Parallel()
	l := example1(t)
	if got := l.Balance(paperex.Consumer).Cash; got != paperex.RetailPrice {
		t.Errorf("consumer opening = %v", got)
	}
	if got := l.Balance(paperex.Producer).Items[paperex.Doc]; got != 1 {
		t.Errorf("producer opening items = %d", got)
	}
	if got := l.Balance(paperex.Broker).Cash; got != paperex.WholesalePrice {
		t.Errorf("broker opening = %v", got)
	}
	if got := l.Balance(paperex.Trusted1); !got.IsEmpty() {
		t.Errorf("trusted opening = %v", got)
	}
	m := market(t)
	if got := m.Balance("s1"); len(got.Items) != 3 || got.Items["d5"] != 1 {
		t.Errorf("s1 opening = %v, want d1, d3 and d5", got)
	}
}

func TestStringDeterministic(t *testing.T) {
	t.Parallel()
	l := example1(t)
	if l.String() != example1(t).String() {
		t.Errorf("String nondeterministic")
	}
	if !strings.Contains(l.String(), "c: $100") {
		t.Errorf("String = %q", l.String())
	}
}

// Property: any sequence of random transfers, by ID or in flight by
// slot, preserves conservation.
func TestConservationProperty(t *testing.T) {
	t.Parallel()
	f := func(moves []uint8) bool {
		l := market(t)
		ids := []model.PartyID{"c1", "b1", "tr1", "tw1", "s1"}
		for _, mv := range moves {
			from, to := ids[int(mv)%len(ids)], ids[int(mv/8)%len(ids)]
			b := model.Cash(model.Money(mv % 7))
			if mv%3 == 0 {
				b = b.With("d1")
			}
			if mv%5 != 0 {
				_ = l.Transfer(from, to, b)
				continue
			}
			// Park the asset in flight, as a sent transfer does.
			src, _ := l.t.PartySlot(from)
			cell, ok := l.t.Cell(src, "d1")
			if !ok || mv%3 != 0 {
				cell = -1
			}
			_ = l.TransferAt(int32(src), l.Transit(), b.Amount, int32(cell), l.InFlight(int32(cell)))
		}
		return l.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Audit checks documents in the order of their first cell, never map
// order: a ledger built 50 times over the same market, with the same
// several documents forged, names the same failing document every time
// — the first one the exchanges move.
func TestAuditNamesFailuresDeterministically(t *testing.T) {
	t.Parallel()
	for i := 0; i < 50; i++ {
		l := market(t)
		// Forge one extra unit of every document c6 and s1 can hold,
		// and one in flight into b3's cell for d3.
		for _, id := range []model.PartyID{"c6", "s1"} {
			p, _ := l.t.PartySlot(id)
			for _, c := range l.t.Cells(p) {
				l.docs[c]++
			}
		}
		_, b3 := slots(t, l, "b3", "d3")
		l.docs[l.InFlight(b3)]++
		err := l.Audit()
		if err == nil || err.Error() != "ledger: document d1 count 2 != opening 1" {
			t.Fatalf("build %d: Audit = %v", i, err)
		}
	}
	l := market(t)
	_, c := slots(t, l, "b3", "d3")
	l.docs[l.InFlight(c)]++
	if err := l.Audit(); err == nil || err.Error() != "ledger: document d3 count 2 != opening 1" {
		t.Fatalf("in-flight forgery: Audit = %v", err)
	}
}

// TransferAt moves exactly what Transfer moves for the same one-action
// bundle, and fails with the same error text when the payer cannot fund
// it.
func TestTransferAtMatchesTransfer(t *testing.T) {
	t.Parallel()
	byID, bySlot := example1(t), example1(t)
	b, bd := slots(t, bySlot, paperex.Broker, paperex.Doc)
	c, cd := slots(t, bySlot, paperex.Consumer, paperex.Doc)
	p, pd := slots(t, bySlot, paperex.Producer, paperex.Doc)
	for _, mv := range []struct {
		from, to         model.PartyID
		src, dst         int32
		amount           model.Money
		fromCell, toCell int32
	}{
		{paperex.Consumer, paperex.Broker, c, b, 30, -1, -1},
		{paperex.Producer, paperex.Broker, p, b, 0, pd, bd},
		{paperex.Producer, paperex.Broker, p, b, 0, pd, bd}, // p no longer holds d
		{paperex.Broker, paperex.Consumer, b, c, 0, -1, -1},
		{paperex.Broker, paperex.Consumer, b, c, 500, -1, -1},
		{paperex.Broker, paperex.Consumer, b, c, 5, bd, cd},
	} {
		bundle := model.Cash(mv.amount)
		if mv.fromCell >= 0 {
			bundle = bundle.With(paperex.Doc)
		}
		want := byID.Transfer(mv.from, mv.to, bundle)
		got := bySlot.TransferAt(mv.src, mv.dst, mv.amount, mv.fromCell, mv.toCell)
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Fatalf("%v: TransferAt = %v, Transfer = %v", bundle, got, want)
		}
	}
	if byID.String() != bySlot.String() {
		t.Fatalf("balances diverge:\n%s\nvs\n%s", bySlot, byID)
	}
	if err := bySlot.TransferAt(c, 7, 1, -1, -1); err == nil {
		t.Fatal("TransferAt accepted an unknown account slot")
	}
	if err := bySlot.TransferAt(b, c, 0, bd, 99); err == nil {
		t.Fatal("TransferAt accepted an unknown cell")
	}
}
