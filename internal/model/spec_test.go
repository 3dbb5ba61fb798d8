package model

import (
	"maps"
	"testing"
)

func TestDepositAndReceiptActions(t *testing.T) {
	t.Parallel()
	e := Exchange{Principal: "c", Trusted: "t1", Gives: Cash(100), Gets: Goods("d")}
	dep := DepositActions(e)
	if len(dep) != 1 || dep[0] != Pay("c", "t1", 100) {
		t.Fatalf("DepositActions = %v", dep)
	}
	rec := ReceiptActions(e)
	if len(rec) != 1 || rec[0] != Give("t1", "c", "d") {
		t.Fatalf("ReceiptActions = %v", rec)
	}
	// Mixed bundle decomposes into pay + sorted gives.
	e2 := Exchange{Principal: "b", Trusted: "t", Gives: Cash(5).With("y", "x"), Gets: Cash(9)}
	dep = DepositActions(e2)
	if len(dep) != 3 || dep[0] != Pay("b", "t", 5) || dep[1] != Give("b", "t", "x") || dep[2] != Give("b", "t", "y") {
		t.Fatalf("DepositActions mixed = %v", dep)
	}
	// A bundle built by hand may be unsorted: the gives still come out
	// in item order, from the one slice returned, and the bundle itself
	// is left as it was.
	e3 := Exchange{Principal: "b", Trusted: "t", Gives: Bundle{Amount: 5, Items: []ItemID{"y", "x"}}}
	dep = DepositActions(e3)
	if len(dep) != 3 || dep[1] != Give("b", "t", "x") || dep[2] != Give("b", "t", "y") {
		t.Fatalf("DepositActions unsorted = %v", dep)
	}
	if e3.Gives.Items[0] != "y" {
		t.Fatalf("DepositActions reordered the bundle: %v", e3.Gives.Items)
	}
	if dep := DepositActions(Exchange{Principal: "b", Trusted: "t"}); dep != nil {
		t.Fatalf("DepositActions of an empty bundle = %v, want nil", dep)
	}
}

// DepositActions and ReceiptActions run on the simulator's hot paths:
// the decomposition costs the returned slice and nothing more. Not
// parallel, so no other test's allocations are counted.
func TestTransferActionsOneAlloc(t *testing.T) {
	e := Exchange{Principal: "b", Trusted: "t", Gives: Bundle{Amount: 5, Items: []ItemID{"y", "x"}}, Gets: Goods("z")}
	if n := testing.AllocsPerRun(100, func() { DepositActions(e) }); n != 1 {
		t.Fatalf("DepositActions allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { ReceiptActions(e) }); n != 1 {
		t.Fatalf("ReceiptActions allocates %v times, want 1", n)
	}
}

func completedState(p *Compiled) State {
	s := NewState(p)
	for _, e := range p.Exchanges {
		for _, a := range DepositActions(e) {
			s.mustAdd(a)
		}
		for _, a := range ReceiptActions(e) {
			s.mustAdd(a)
		}
	}
	return s
}

func TestAcceptableExample1(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	done := completedState(p)
	for _, id := range []PartyID{"c", "b", "p"} {
		if !Acceptable(id, done) {
			t.Errorf("completed state not acceptable to %s", id)
		}
		if !Acceptable(id, NewState(p)) {
			t.Errorf("status quo not acceptable to %s", id)
		}
	}
	// Consumer paid, got nothing: unacceptable.
	paid := NewState(p, Pay("c", "t1", 100))
	if Acceptable("c", paid) {
		t.Errorf("paid-without-goods acceptable to c")
	}
	// Refund restores acceptability.
	refunded := NewState(p, Pay("c", "t1", 100), Pay("c", "t1", 100).Compensation())
	if !Acceptable("c", refunded) {
		t.Errorf("refund not acceptable to c")
	}
	// Windfall: consumer got the doc without paying.
	windfall := NewState(p, Give("t1", "c", "d"))
	if !Acceptable("c", windfall) {
		t.Errorf("windfall not acceptable to c")
	}
	// Broker bought the document but never sold it: unacceptable.
	stuck := NewState(p,
		Pay("b", "t2", 80), Give("p", "t2", "d"),
		Give("t2", "b", "d"), Pay("t2", "p", 80),
	)
	if Acceptable("b", stuck) {
		t.Errorf("broker stuck with unsold document acceptable")
	}
	if !Acceptable("p", stuck) {
		t.Errorf("producer's completed sale unacceptable")
	}
}

func TestAcceptableAllOrNothingConjunction(t *testing.T) {
	t.Parallel()
	// A consumer buying two documents via two trusteds, all-or-nothing.
	p := MustCompile(&Problem{
		Name: "two-docs",
		Parties: []Party{
			{ID: "c", Role: RoleConsumer},
			{ID: "p1", Role: RoleProducer},
			{ID: "p2", Role: RoleProducer},
			{ID: "ta", Role: RoleTrusted},
			{ID: "tb", Role: RoleTrusted},
		},
		Exchanges: []Exchange{
			{Principal: "c", Trusted: "ta", Gives: Cash(10), Gets: Goods("d1")},
			{Principal: "p1", Trusted: "ta", Gives: Goods("d1"), Gets: Cash(10)},
			{Principal: "c", Trusted: "tb", Gives: Cash(20), Gets: Goods("d2")},
			{Principal: "p2", Trusted: "tb", Gives: Goods("d2"), Gets: Cash(20)},
		},
	})
	// Paid for and received only d1: NOT acceptable (wants both).
	partial := NewState(p, Pay("c", "ta", 10), Give("ta", "c", "d1"))
	if Acceptable("c", partial) {
		t.Fatalf("partial delivery acceptable under conjunction")
	}
	// Both received: acceptable.
	full := NewState(p,
		Pay("c", "ta", 10), Give("ta", "c", "d1"),
		Pay("c", "tb", 20), Give("tb", "c", "d2"),
	)
	if !Acceptable("c", full) {
		t.Fatalf("full delivery unacceptable")
	}
	// One paid and refunded, other untouched: acceptable.
	refund := NewState(p, Pay("c", "ta", 10), Pay("c", "ta", 10).Compensation())
	if !Acceptable("c", refund) {
		t.Fatalf("refund unacceptable")
	}

	// After an indemnity split covering d2, buying d1 alone becomes
	// acceptable only when the d2 failure is compensated.
	builder := p.Clone()
	builder.Indemnities = append(builder.Indemnities, IndemnityOffer{By: "p2", Covers: 2, Via: "tb"})
	split := MustCompile(builder)
	// d1 completed, d2 side untouched, penalty paid: acceptable.
	compensated := NewState(split,
		Pay("c", "ta", 10), Give("ta", "c", "d1"),
		Pay("tb", "c", RequiredIndemnity(builder, 2)),
	)
	if !Acceptable("c", compensated) {
		t.Fatalf("compensated split outcome unacceptable")
	}
	// d1 completed, d2 missing, NO penalty: unacceptable — the indemnity
	// rule demands the payout once a sibling deposit is locked in.
	if Acceptable("c", NewState(split, Pay("c", "ta", 10), Give("ta", "c", "d1"))) {
		t.Fatalf("uncompensated split outcome acceptable")
	}
	// d2 deposit refunded and penalty paid alongside a completed d1.
	full2 := NewState(split,
		Pay("c", "ta", 10), Give("ta", "c", "d1"),
		Pay("c", "tb", 20), Pay("c", "tb", 20).Compensation(),
		Pay("tb", "c", RequiredIndemnity(builder, 2)),
	)
	if !Acceptable("c", full2) {
		t.Fatalf("refund+payout outcome unacceptable")
	}
	// An uncompensated, undelivered deposit on the covered exchange stays
	// unacceptable even with the payout (the escrow must also come back).
	if Acceptable("c", NewState(split, Pay("c", "tb", 20), Pay("tb", "c", RequiredIndemnity(builder, 2)))) {
		t.Fatalf("lost escrow acceptable")
	}
}

func TestRequiredIndemnity(t *testing.T) {
	t.Parallel()
	// Figure 7 shape: consumer exchanges priced 10/20/30.
	p := MustCompile(&Problem{
		Name: "fig7-consumer",
		Parties: []Party{
			{ID: "c", Role: RoleConsumer},
			{ID: "x1", Role: RoleProducer}, {ID: "x2", Role: RoleProducer}, {ID: "x3", Role: RoleProducer},
			{ID: "u1", Role: RoleTrusted}, {ID: "u2", Role: RoleTrusted}, {ID: "u3", Role: RoleTrusted},
		},
		Exchanges: []Exchange{
			{Principal: "c", Trusted: "u1", Gives: Cash(10), Gets: Goods("d1")},
			{Principal: "x1", Trusted: "u1", Gives: Goods("d1"), Gets: Cash(10)},
			{Principal: "c", Trusted: "u2", Gives: Cash(20), Gets: Goods("d2")},
			{Principal: "x2", Trusted: "u2", Gives: Goods("d2"), Gets: Cash(20)},
			{Principal: "c", Trusted: "u3", Gives: Cash(30), Gets: Goods("d3")},
			{Principal: "x3", Trusted: "u3", Gives: Goods("d3"), Gets: Cash(30)},
		},
	})
	tests := []struct {
		covers int
		want   Money
	}{
		{0, 50}, // doc1 ($10): protect 20+30
		{2, 40}, // doc2 ($20): protect 10+30
		{4, 30}, // doc3 ($30): protect 10+20
	}
	for _, tt := range tests {
		if got := RequiredIndemnity(&p.Problem, tt.covers); got != tt.want {
			t.Errorf("RequiredIndemnity(%d) = %v, want %v", tt.covers, got, tt.want)
		}
	}
	if got := RequiredIndemnity(&p.Problem, -1); got != 0 {
		t.Errorf("RequiredIndemnity(-1) = %v", got)
	}
}

// AutoSpec (descriptor enumeration) must agree with Acceptable (semantic
// predicate) on the paper's Section 3.1 cases.
func TestAutoSpecAgreesWithAcceptable(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	cases := []State{
		NewState(p),
		completedState(p),
		NewState(p, Pay("c", "t1", 100)),
		NewState(p, Pay("c", "t1", 100), Pay("c", "t1", 100).Compensation()),
		NewState(p, Give("t1", "c", "d")),
		NewState(p, Give("b", "t1", "d"), Give("b", "t1", "d").Compensation()),
	}
	for _, id := range []PartyID{"c", "p", "b"} {
		spec := AutoSpec(p, id)
		if err := spec.Validate(); err != nil {
			t.Fatalf("AutoSpec(%s) invalid: %v", id, err)
		}
		for _, s := range cases {
			got := spec.Accepts(stateSet(s))
			want := Acceptable(id, s)
			if got != want {
				t.Errorf("party %s state %v: spec=%v semantic=%v", id, s, got, want)
			}
		}
	}
}

func TestAutoSpecPreferredIsCompletion(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	spec := AutoSpec(p, "c")
	if spec.PreferredDescriptor().Name != "exchange completed" {
		t.Fatalf("preferred = %q", spec.PreferredDescriptor().Name)
	}
	if !spec.Accepts(stateSet(completedState(p))) {
		t.Fatalf("completed state rejected by AutoSpec")
	}
}

func TestTrustedSpec(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	spec, err := TrustedSpec(p, "t1")
	if err != nil {
		t.Fatalf("TrustedSpec = %v", err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec invalid: %v", err)
	}
	// Status quo acceptable.
	if !spec.Accepts(setOf()) {
		t.Fatalf("status quo rejected")
	}
	// The full "exchange works" state of Section 2.5.
	works := setOf(
		Pay("c", "t1", 100), Notify("t1", "b"),
		Give("b", "t1", "d"), Notify("t1", "c"),
		Give("t1", "c", "d"), Pay("t1", "b", 100),
	)
	if !spec.Accepts(works) {
		t.Fatalf("completed exchange rejected for t1")
	}
	// Back-out: consumer refunded after notification expires.
	backout := setOf(
		Pay("c", "t1", 100), Notify("t1", "b"),
		Pay("c", "t1", 100).Compensation(),
	)
	if !spec.Accepts(backout) {
		t.Fatalf("back-out rejected for t1")
	}
	// Guarantee semantics are exact: holding the money with no follow-up
	// is not one of the promised states.
	holding := setOf(Pay("c", "t1", 100))
	if GuaranteeHolds(spec, holding) {
		t.Fatalf("asset retention accepted for t1")
	}
	if !GuaranteeHolds(spec, works) || !GuaranteeHolds(spec, backout) || !GuaranteeHolds(spec, setOf()) {
		t.Fatalf("guarantee states rejected")
	}
	// Actions not involving t1 are ignored by the guarantee check.
	noisy := maps.Clone(works)
	noisy[Pay("b", "t2", 80)] = struct{}{}
	if !GuaranteeHolds(spec, noisy) {
		t.Fatalf("unrelated action broke the guarantee check")
	}

	// Degree != 2 reports an error but still returns the status quo.
	if _, err := TrustedSpec(p, "c"); err == nil {
		t.Fatalf("TrustedSpec on non-degree-2 node succeeded")
	}
}

func TestTrustedNeutral(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	works := NewState(p,
		Pay("c", "t1", 100), Give("b", "t1", "d"),
		Give("t1", "c", "d"), Pay("t1", "b", 100),
	)
	if !TrustedNeutral(works, "t1") {
		t.Fatalf("conduit state not neutral")
	}
	if TrustedNeutral(NewState(p, Pay("c", "t1", 100)), "t1") {
		t.Fatalf("retained cash reported neutral")
	}
	refund := NewState(p, Pay("c", "t1", 100), Pay("c", "t1", 100).Compensation())
	if !TrustedNeutral(refund, "t1") {
		t.Fatalf("refunded state not neutral")
	}
}

func TestAutoSpecLargeProblemSkipsEnumeration(t *testing.T) {
	t.Parallel()
	// Build a consumer with more exchanges than maxEnumExchanges; AutoSpec
	// must not blow up, and the semantic predicate stays exact.
	p := &Problem{Name: "wide"}
	p.Parties = append(p.Parties, Party{ID: "c", Role: RoleConsumer})
	for i := 0; i < maxEnumExchanges+2; i++ {
		src := PartyID(string(rune('A' + i)))
		tr := PartyID("t" + string(rune('A'+i)))
		doc := ItemID("d" + string(rune('A'+i)))
		p.Parties = append(p.Parties,
			Party{ID: src, Role: RoleProducer},
			Party{ID: tr, Role: RoleTrusted},
		)
		p.Exchanges = append(p.Exchanges,
			Exchange{Principal: "c", Trusted: tr, Gives: Cash(10), Gets: Goods(doc)},
			Exchange{Principal: src, Trusted: tr, Gives: Goods(doc), Gets: Cash(10)},
		)
	}
	c := MustCompile(p)
	spec := AutoSpec(c, "c")
	if len(spec.Descriptors) > 10 {
		t.Fatalf("enumeration not bounded: %d descriptors", len(spec.Descriptors))
	}
	if !Acceptable("c", completedState(c)) {
		t.Fatalf("semantic predicate rejected completion")
	}
}
