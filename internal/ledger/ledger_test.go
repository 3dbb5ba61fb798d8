package ledger

import (
	"strings"
	"testing"
	"testing/quick"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/slab"
)

func twoAccounts() *Ledger {
	return New(map[model.PartyID]*model.Holding{
		"a": holdingOf(100, "d"),
		"b": holdingOf(50),
	})
}

func holdingOf(cash model.Money, items ...model.ItemID) *model.Holding {
	h := model.NewHolding()
	h.Add(model.Bundle{Amount: cash, Items: items})
	return h
}

func TestTransferAndBalance(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	if err := l.Transfer("a", "b", model.Cash(30).With("d")); err != nil {
		t.Fatalf("Transfer = %v", err)
	}
	if got := l.Balance("a"); got.Cash != 70 || got.Items["d"] != 0 {
		t.Errorf("a = %v", got)
	}
	if got := l.Balance("b"); got.Cash != 80 || got.Items["d"] != 1 {
		t.Errorf("b = %v", got)
	}
	if err := l.Audit(); err != nil {
		t.Errorf("Audit = %v", err)
	}
}

func TestTransferErrors(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	if err := l.Transfer("a", "b", model.Cash(101)); err == nil {
		t.Fatalf("overdraft accepted")
	}
	if err := l.Transfer("ghost", "b", model.Cash(1)); err == nil {
		t.Fatalf("unknown source accepted")
	}
	if err := l.Transfer("a", "ghost", model.Cash(1)); err == nil {
		t.Fatalf("unknown destination accepted")
	}
	// Failed transfers never mutate.
	if got := l.Balance("a").Cash; got != 100 {
		t.Errorf("a mutated to %v", got)
	}
	// Empty transfers are no-ops.
	if err := l.Transfer("a", "b", model.Bundle{}); err != nil {
		t.Errorf("empty transfer = %v", err)
	}
	if got := l.Balance("b").Cash; got != 50 {
		t.Errorf("b mutated to %v", got)
	}
}

// A funded transfer between accounts that already hold its items moves
// counts in place: the simulator calls Transfer twice per delivered
// transfer, so it must not allocate.
func TestTransferZeroAlloc(t *testing.T) {
	l := twoAccounts()
	b := model.Cash(1).With("d")
	avg := testing.AllocsPerRun(1000, func() {
		if err := l.Transfer("a", "b", b); err != nil {
			t.Fatal(err)
		}
		if err := l.Transfer("b", "a", b); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Transfer allocates %v allocs/op, want 0", avg)
	}
}

// TransferAt between accounts that already hold its item allocates
// nothing either.
func TestTransferAtZeroAlloc(t *testing.T) {
	l := twoAccounts()
	a, _ := l.account("a")
	b, _ := l.account("b")
	d, _ := l.ItemSlot("d")
	if err := l.TransferAt(a, b, 1, d); err != nil { // b's first d
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := l.TransferAt(b, a, 1, d); err != nil {
			t.Fatal(err)
		}
		if err := l.TransferAt(a, b, 1, d); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("TransferAt allocates %v allocs/op, want 0", avg)
	}
}

func TestCanPay(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	if !l.CanPay("a", model.Cash(100)) || l.CanPay("a", model.Cash(101)) {
		t.Errorf("CanPay wrong")
	}
	if l.CanPay("ghost", model.Cash(0).With()) {
		t.Errorf("CanPay for unknown account")
	}
}

func TestBalanceIsACopy(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	b := l.Balance("a")
	b.Add(model.Cash(1000))
	if l.Balance("a").Cash != 100 {
		t.Errorf("Balance leaked internal state")
	}
	if got := l.Balance("ghost"); !got.IsEmpty() {
		t.Errorf("ghost balance = %v", got)
	}
}

func TestForProblem(t *testing.T) {
	t.Parallel()
	l := ForProblem(paperex.Example1())
	if got := l.Balance(paperex.Consumer).Cash; got != paperex.RetailPrice {
		t.Errorf("consumer opening = %v", got)
	}
	if got := l.Balance(paperex.Producer).Items[paperex.Doc]; got != 1 {
		t.Errorf("producer opening items = %d", got)
	}
	if got := l.Balance(paperex.Broker).Cash; got != paperex.WholesalePrice {
		t.Errorf("broker opening = %v", got)
	}
}

func TestStringDeterministic(t *testing.T) {
	t.Parallel()
	l := twoAccounts()
	if l.String() != l.String() {
		t.Errorf("String nondeterministic")
	}
	if !strings.Contains(l.String(), "a: $100") {
		t.Errorf("String = %q", l.String())
	}
}

// Property: any sequence of random transfers preserves conservation.
func TestConservationProperty(t *testing.T) {
	t.Parallel()
	f := func(moves []uint8) bool {
		l := twoAccounts()
		parties := []model.PartyID{"a", "b"}
		for _, mv := range moves {
			from := parties[int(mv)%2]
			to := parties[(int(mv)+1)%2]
			amount := model.Money(mv % 40)
			_ = l.Transfer(from, to, model.Cash(amount))
		}
		return l.Audit() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Slots are interned in sorted order, not map order: a ledger built 50
// times from the same opening holdings, with the same several
// documents corrupted, names the same failing document every time.
func TestAuditNamesFailuresDeterministically(t *testing.T) {
	t.Parallel()
	initial := func() map[model.PartyID]*model.Holding {
		out := make(map[model.PartyID]*model.Holding)
		for _, id := range []model.PartyID{"p", "q", "r", "s", "t", "u"} {
			out[id] = holdingOf(10, model.ItemID("d"+id), model.ItemID("e"+id))
		}
		return out
	}
	var want string
	for i := 0; i < 50; i++ {
		l := New(initial())
		// Forge one extra unit of every document the first party holds
		// and of every document the last one holds.
		for _, p := range []int32{0, int32(len(l.cash) - 1)} {
			for _, it := range l.held[p] {
				l.counts.Add(slab.PairKey(p, it), 1)
			}
		}
		err := l.Audit()
		if err == nil {
			t.Fatal("Audit accepted forged documents")
		}
		if i == 0 {
			want = err.Error()
			continue
		}
		if err.Error() != want {
			t.Fatalf("build %d: Audit = %q, first build said %q", i, err, want)
		}
	}
}

// TransferAt moves exactly what Transfer moves for the same one-action
// bundle, and fails with the same error text when the payer cannot fund
// it.
func TestTransferAtMatchesTransfer(t *testing.T) {
	t.Parallel()
	byID, bySlot := twoAccounts(), twoAccounts()
	a, _ := bySlot.account("a")
	b, _ := bySlot.account("b")
	d, _ := bySlot.ItemSlot("d")
	for _, mv := range []struct {
		amount model.Money
		item   int32
	}{
		{30, -1},
		{0, d},
		{0, d}, // a no longer holds d
		{0, -1},
		{500, -1},
		{5, d},
	} {
		bundle := model.Cash(mv.amount)
		if mv.item >= 0 {
			bundle = bundle.With("d")
		}
		want := byID.Transfer("a", "b", bundle)
		got := bySlot.TransferAt(a, b, mv.amount, mv.item)
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Fatalf("%v: TransferAt = %v, Transfer = %v", bundle, got, want)
		}
	}
	if byID.String() != bySlot.String() {
		t.Fatalf("balances diverge:\n%s\nvs\n%s", bySlot, byID)
	}
	if err := bySlot.TransferAt(a, 7, 1, -1); err == nil {
		t.Fatal("TransferAt accepted an unknown account slot")
	}
}
