package model

import (
	"sync"
	"testing"
)

// Two purchases by c at one trusted component pay the same $10 — one
// action value — and c's collateral for the first is that value too.
func coincidingProblem() *Problem {
	return &Problem{
		Name: "coinciding",
		Parties: []Party{
			{ID: "c", Role: RoleConsumer},
			{ID: "s1", Role: RoleProducer},
			{ID: "s2", Role: RoleProducer},
			{ID: "t", Role: RoleTrusted},
		},
		Exchanges: []Exchange{
			{Principal: "c", Trusted: "t", Gives: Cash(10), Gets: Goods("a")},
			{Principal: "c", Trusted: "t", Gives: Cash(10), Gets: Goods("b")},
			{Principal: "s1", Trusted: "t", Gives: Goods("a"), Gets: Cash(10)},
			{Principal: "s2", Trusted: "t", Gives: Goods("b"), Gets: Cash(10)},
		},
		Indemnities: []IndemnityOffer{{By: "c", Covers: 0, Via: "t", Amount: 10}},
	}
}

// Every slot round-trips through its action value, and actions equal as
// values share one slot, as they share one entry of a State.
func TestActionTableInternsByValue(t *testing.T) {
	t.Parallel()
	p := coincidingProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	tab := p.ActionTable()
	seen := tab.NewState()
	for s := 0; s < tab.Len(); s++ {
		a := tab.Action(s)
		if got, ok := tab.Slot(a); !ok || got != s {
			t.Errorf("Slot(Action(%d) = %v) = %d, %v", s, a, got, ok)
		}
		if err := seen.Add(a); err != nil {
			t.Errorf("slot %d: %v", s, err)
		}
	}
	pay := Pay("c", "t", 10)
	want, _ := tab.Slot(pay)
	for _, got := range []int32{tab.Deposits(0)[0], tab.Deposits(1)[0], tab.Post[0]} {
		if int(got) != want {
			t.Errorf("%v has slots %d and %d", pay, got, want)
		}
	}
	if comp, ok := tab.Slot(pay.Compensation()); !ok || comp != want+tab.Transfers {
		t.Errorf("compensation slot = %d, %v; want %d", comp, ok, want+tab.Transfers)
	}
	malformed := Pay("c", "t", 10)
	malformed.Item = "a"
	for _, foreign := range []Action{Pay("c", "t", 9), Give("c", "t", "a"), Notify("t", "ghost"), Pay("c", "s1", 10), malformed} {
		if s, ok := tab.Slot(foreign); ok {
			t.Errorf("foreign %v has slot %d", foreign, s)
		}
	}
}

// The table is built on first use; readers that race to build it must
// all end up reading the one published copy.
func TestActionTableConcurrentFirstUse(t *testing.T) {
	t.Parallel()
	p := coincidingProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refunded := NewState(p, Pay("c", "t", 10), Pay("c", "t", 10).Compensation())
			if !Acceptable(p, "c", refunded) {
				t.Error("c's refunded deposit reads as unacceptable")
			}
			if h := InitialHoldings(p)["c"]; h.Cash != 30 {
				t.Errorf("c starts with %v, want $30", h.Cash)
			}
		}()
	}
	wg.Wait()
	if p.ActionTable() != p.ActionTable() {
		t.Error("the published table changed")
	}
}
