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

// Validated and compiled are one state. Compile on a validated problem
// writes nothing; a problem mutated and validated again reads a fresh
// table that sees the mutation.
func TestValidatePublishesFreshTable(t *testing.T) {
	t.Parallel()
	p := coincidingProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	tab := p.ActionTable()
	if err := p.Compile(); err != nil || p.ActionTable() != tab {
		t.Fatalf("Compile of a validated problem = %v, table kept %v", err, p.ActionTable() == tab)
	}
	p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "c", Covers: 1, Via: "t"})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	fresh := p.ActionTable()
	if fresh == tab {
		t.Fatal("Validate after a mutation kept the old table")
	}
	if len(fresh.Post) != 2 || len(tab.Post) != 1 {
		t.Errorf("offer posts: fresh %d, old %d; want 2 and 1", len(fresh.Post), len(tab.Post))
	}
}

// Compile of an invalid problem fails as Validate does and leaves the
// problem uncompiled: no table is published, and each ActionTable call
// builds a private one.
func TestCompileInvalidPublishesNothing(t *testing.T) {
	t.Parallel()
	broken := func() *Problem {
		p := coincidingProblem()
		p.Exchanges[0].Gives = Cash(17) // t now receives more than it pays out
		return p
	}
	want := broken().Validate()
	if want == nil {
		t.Fatal("the broken problem validates")
	}
	p := broken()
	if err := p.Compile(); err == nil || err.Error() != want.Error() {
		t.Fatalf("Compile = %v, want %v", err, want)
	}
	if p.table != nil {
		t.Fatal("Compile published a table for an invalid problem")
	}
	if a, b := p.ActionTable(), p.ActionTable(); a == nil || a == b || p.table != nil {
		t.Fatal("ActionTable of an invalid problem published its table")
	}
}

// A table read through after an append is stale. Compile and
// ActionTable see the new length of any of the problem's five slices
// and validate the problem again, so an edit that skips Validate still
// fails closed: an invalid edit is rejected as Validate rejects it.
func TestCompileSeesAppend(t *testing.T) {
	t.Parallel()
	edits := map[string]func(p *Problem){
		"party": func(p *Problem) { p.Parties = append(p.Parties, Party{ID: "s3", Role: RoleProducer}) },
		"exchange": func(p *Problem) {
			p.Exchanges = append(p.Exchanges, Exchange{Principal: "s1", Trusted: "t", Gives: Goods("x")})
		},
		"trust":      func(p *Problem) { p.DirectTrust = append(p.DirectTrust, TrustDecl{Truster: "c", Trustee: "s1"}) },
		"indemnity":  func(p *Problem) { p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "c", Covers: 1, Via: "t"}) },
		"constraint": func(p *Problem) { p.Constraints = append(p.Constraints, Constraint{}) },
	}
	for name, edit := range edits {
		p := coincidingProblem()
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		tab := p.ActionTable()
		edit(p)
		if p.ActionTable() == tab {
			t.Errorf("%s: ActionTable read the stale table", name)
		}
		want := p.Clone().Validate()
		if err := p.Compile(); (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Errorf("%s: Compile = %v, want %v", name, err, want)
		}
		if (p.table != nil) != (want == nil) {
			t.Errorf("%s: published %v, valid %v", name, p.table != nil, want == nil)
		}
	}
	p := coincidingProblem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Indemnities = append(p.Indemnities, IndemnityOffer{By: "c", Covers: 1, Via: "t"})
	if err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	if n := len(p.ActionTable().Post); n != 2 {
		t.Errorf("after the appended offer the table has %d posts, want 2", n)
	}
}
