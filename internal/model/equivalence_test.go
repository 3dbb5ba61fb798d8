package model

import (
	"math/rand"
	"testing"
)

// guaranteeState draws a state compatible with the Section 2.5 trusted
// guarantee: per trusted component, either nothing happened, some
// deposits sit in escrow (optionally refunded), or the whole exchange
// completed. These are exactly the final states honest intermediaries
// can produce; the Section 3.1 descriptor enumeration is defined over
// this vocabulary.
func guaranteeState(rng *rand.Rand, p *Compiled) State {
	s := NewState(p)
	for _, pa := range p.Parties {
		if !pa.IsTrusted() {
			continue
		}
		var mine []int
		for ei, e := range p.Exchanges {
			if e.Trusted == pa.ID {
				mine = append(mine, ei)
			}
		}
		switch rng.Intn(4) {
		case 0: // untouched
		case 1: // partial escrow, still held
			for _, ei := range mine {
				if rng.Intn(2) == 0 {
					for _, d := range DepositActions(p.Exchanges[ei]) {
						s.mustAdd(d)
					}
				}
			}
		case 2: // escrowed then refunded
			for _, ei := range mine {
				if rng.Intn(2) == 0 {
					for _, d := range DepositActions(p.Exchanges[ei]) {
						s.mustAdd(d)
						s.mustAdd(d.Compensation())
					}
				}
			}
		case 3: // completed
			for _, ei := range mine {
				for _, d := range DepositActions(p.Exchanges[ei]) {
					s.mustAdd(d)
				}
				for _, r := range ReceiptActions(p.Exchanges[ei]) {
					s.mustAdd(r)
				}
			}
		}
	}
	return s
}

// The Section 3.1 descriptor enumeration (AutoSpec) and the semantic
// predicate (Acceptable) agree on every trusted-guarantee-compatible
// state, for randomly shaped small problems without indemnities.
// (States outside that vocabulary — windfall deliveries without
// deposits, returned receipts — are judged by the semantic predicate
// alone; the enumeration deliberately does not cover what honest
// intermediaries cannot produce.)
func TestAutoSpecEquivalentToAcceptableRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 40; trial++ {
		p, err := Compile(randomSmallProblem(rng))
		if err != nil {
			t.Fatalf("trial %d: invalid problem: %v", trial, err)
		}
		specs := make(map[PartyID]Spec)
		for _, pa := range p.Parties {
			if !pa.IsTrusted() {
				specs[pa.ID] = AutoSpec(p, pa.ID)
			}
		}
		for draw := 0; draw < 60; draw++ {
			s := guaranteeState(rng, p)
			for id, spec := range specs {
				got := spec.Accepts(stateSet(s))
				want := Acceptable(id, s)
				if got != want {
					t.Fatalf("trial %d draw %d party %s: spec=%v semantic=%v\nstate=%v",
						trial, draw, id, got, want, s)
				}
			}
		}
	}
}

// randomSmallProblem builds a 1-consumer market with 1..2 documents,
// each direct from a producer through its own intermediary.
func randomSmallProblem(rng *rand.Rand) *Problem {
	p := &Problem{Name: "equiv"}
	p.Parties = append(p.Parties, Party{ID: "c", Role: RoleConsumer})
	docs := 1 + rng.Intn(2)
	for i := 0; i < docs; i++ {
		doc := ItemID([]string{"x", "y"}[i])
		price := Money(5 + rng.Intn(20))
		src := PartyID([]string{"p1", "p2"}[i])
		tr := PartyID([]string{"ta", "tb"}[i])
		p.Parties = append(p.Parties,
			Party{ID: src, Role: RoleProducer},
			Party{ID: tr, Role: RoleTrusted},
		)
		p.Exchanges = append(p.Exchanges,
			Exchange{Principal: "c", Trusted: tr, Gives: Cash(price), Gets: Goods(doc)},
			Exchange{Principal: src, Trusted: tr, Gives: Goods(doc), Gets: Cash(price)},
		)
	}
	return p
}

// Exhaustive check on the Example 1 broker: every combination of
// per-trusted guarantee outcomes (4 per intermediary, two intermediaries,
// with per-exchange escrow subsets) yields identical verdicts.
func TestAutoSpecEquivalenceExhaustiveBroker(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	spec := AutoSpec(p, "b")
	trusteds := [][]int{{0, 1}, {2, 3}} // exchange indices at t1, t2
	// Outcome encodings per trusted: 0 untouched; 1..3 escrow subsets
	// (bitmask over its two exchanges); 4..6 refunded subsets; 7 completed.
	apply := func(s State, exchanges []int, outcome int) {
		switch {
		case outcome == 0:
		case outcome <= 3:
			for bit, ei := range exchanges {
				if outcome&(1<<bit) != 0 {
					for _, d := range DepositActions(p.Exchanges[ei]) {
						s.mustAdd(d)
					}
				}
			}
		case outcome <= 6:
			mask := outcome - 3
			for bit, ei := range exchanges {
				if mask&(1<<bit) != 0 {
					for _, d := range DepositActions(p.Exchanges[ei]) {
						s.mustAdd(d)
						s.mustAdd(d.Compensation())
					}
				}
			}
		default:
			for _, ei := range exchanges {
				for _, d := range DepositActions(p.Exchanges[ei]) {
					s.mustAdd(d)
				}
				for _, r := range ReceiptActions(p.Exchanges[ei]) {
					s.mustAdd(r)
				}
			}
		}
	}
	count := 0
	for o1 := 0; o1 <= 7; o1++ {
		for o2 := 0; o2 <= 7; o2++ {
			s := NewState(p)
			apply(s, trusteds[0], o1)
			apply(s, trusteds[1], o2)
			count++
			got := spec.Accepts(stateSet(s))
			want := Acceptable("b", s)
			if got != want {
				t.Fatalf("outcomes (%d,%d): spec=%v semantic=%v\nstate=%v", o1, o2, got, want, s)
			}
		}
	}
	if count != 64 {
		t.Fatalf("checked %d states", count)
	}
}
