package indemnity

import (
	"strings"
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// E5: Figure 7's two orderings. Order (doc1, doc2) posts $50 then $40 —
// $90 total. Order (doc3, doc2) posts $30 then $40 — $70 total. Both
// make the transaction feasible.
func TestFigure7Orderings(t *testing.T) {
	t.Parallel()
	p := paperex.Figure7()

	order1, err := InOrder(model.MustCompile(p), []int{paperex.Figure7ConsumerDoc1, paperex.Figure7ConsumerDoc2})
	if err != nil {
		t.Fatalf("InOrder(doc1,doc2) = %v", err)
	}
	if !order1.Feasible || order1.Total != 90 {
		t.Errorf("order #1 = %v, want feasible at $90", order1)
	}
	if order1.Splits[0].Amount != 50 || order1.Splits[1].Amount != 40 {
		t.Errorf("order #1 amounts = %v, want $50 then $40", order1.Splits)
	}

	order2, err := InOrder(model.MustCompile(p), []int{paperex.Figure7ConsumerDoc3, paperex.Figure7ConsumerDoc2})
	if err != nil {
		t.Fatalf("InOrder(doc3,doc2) = %v", err)
	}
	if !order2.Feasible || order2.Total != 70 {
		t.Errorf("order #2 = %v, want feasible at $70", order2)
	}
	if order2.Splits[0].Amount != 30 || order2.Splits[1].Amount != 40 {
		t.Errorf("order #2 amounts = %v, want $30 then $40", order2.Splits)
	}
}

// The greedy algorithm (indemnify by decreasing cost, cheapest piece
// last/never) attains the $70 minimum on Figure 7.
func TestGreedyFigure7(t *testing.T) {
	t.Parallel()
	res, err := Greedy(model.MustCompile(paperex.Figure7()))
	if err != nil {
		t.Fatalf("Greedy = %v", err)
	}
	if !res.Feasible {
		t.Fatalf("greedy found no feasible indemnification: %v", res)
	}
	if res.Total != 70 {
		t.Errorf("greedy total = %v, want $70", res.Total)
	}
	if len(res.Splits) != 2 {
		t.Fatalf("greedy splits = %d, want 2", len(res.Splits))
	}
	// Highest cost first: doc3 ($30 → $30 collateral), then doc2.
	if res.Splits[0].Covers != paperex.Figure7ConsumerDoc3 || res.Splits[1].Covers != paperex.Figure7ConsumerDoc2 {
		t.Errorf("greedy order = %v, want doc3 then doc2", res.Splits)
	}
	// The cheapest piece (doc1, which would need a $50 collateral) is
	// never indemnified.
	for _, sp := range res.Splits {
		if sp.Covers == paperex.Figure7ConsumerDoc1 {
			t.Errorf("greedy indemnified the cheapest piece")
		}
	}
}

// Greedy matches the brute-force optimum on the paper's examples.
func TestGreedyMatchesOptimal(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"figure7", "example2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := paperex.All()[name]
			g, err := Greedy(model.MustCompile(p))
			if err != nil {
				t.Fatalf("Greedy = %v", err)
			}
			o, err := Optimal(model.MustCompile(p))
			if err != nil {
				t.Fatalf("Optimal = %v", err)
			}
			if g.Feasible != o.Feasible {
				t.Fatalf("greedy feasible=%v, optimal feasible=%v", g.Feasible, o.Feasible)
			}
			if g.Total != o.Total {
				t.Errorf("greedy total %v != optimal total %v", g.Total, o.Total)
			}
		})
	}
}

// E6 via the indemnity engine: greedy on Example 2 posts one collateral
// ($100, the price of the other document) and the result is feasible.
func TestGreedyExample2(t *testing.T) {
	t.Parallel()
	res, err := Greedy(model.MustCompile(paperex.Example2()))
	if err != nil {
		t.Fatalf("Greedy = %v", err)
	}
	if !res.Feasible || len(res.Splits) != 1 {
		t.Fatalf("greedy = %v, want one split", res)
	}
	if res.Total != 100 {
		t.Errorf("total = %v, want $100", res.Total)
	}
}

// The greedy result, applied to the problem, synthesizes a verifiable
// plan end to end.
func TestGreedyResultSynthesizes(t *testing.T) {
	t.Parallel()
	p := paperex.Figure7()
	res, err := Greedy(model.MustCompile(p))
	if err != nil || !res.Feasible {
		t.Fatalf("Greedy = %v, %v", res, err)
	}
	applied := p.Clone()
	for _, sp := range res.Splits {
		applied.Indemnities = append(applied.Indemnities, sp.Offer)
	}
	plan, err := core.Synthesize(applied)
	if err != nil {
		t.Fatalf("Synthesize = %v", err)
	}
	if !plan.Feasible {
		t.Fatalf("plan infeasible after greedy indemnification")
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v\n%s", err, plan.ExecutionSequence())
	}
}

// Feasible problems need no indemnities.
func TestGreedyFeasibleProblemNoSplits(t *testing.T) {
	t.Parallel()
	res, err := Greedy(model.MustCompile(paperex.Example1()))
	if err != nil {
		t.Fatalf("Greedy = %v", err)
	}
	if !res.Feasible || len(res.Splits) != 0 || res.Total != 0 {
		t.Fatalf("Greedy on feasible problem = %v", res)
	}
	if !strings.Contains(res.String(), "no indemnities needed") {
		t.Errorf("String = %q", res.String())
	}
}

// The poor-broker impasse is a type-3 (ordering) failure: no splittable
// candidates exist and greedy reports no solution.
func TestGreedyPoorBrokerNoCandidates(t *testing.T) {
	t.Parallel()
	res, err := Greedy(model.MustCompile(paperex.PoorBroker()))
	if err != nil {
		t.Fatalf("Greedy = %v", err)
	}
	if res.Feasible {
		t.Fatalf("poor broker indemnified to feasibility: %v", res)
	}
	cands := Candidates(model.MustCompile(paperex.PoorBroker()))
	for _, c := range cands {
		if model := paperex.PoorBroker().Exchanges[c.Covers].Principal; model == paperex.Broker {
			t.Errorf("broker exchange offered as splittable: %v", c)
		}
	}
}

// Candidates resolve the counterpart seller and shared intermediary.
func TestCandidatesResolveSellers(t *testing.T) {
	t.Parallel()
	cands := Candidates(model.MustCompile(paperex.Figure7()))
	if len(cands) != 3 {
		t.Fatalf("candidates = %d, want 3 (the consumer's three pieces)", len(cands))
	}
	wantSellers := map[int]model.PartyID{
		paperex.Figure7ConsumerDoc1: paperex.Broker1,
		paperex.Figure7ConsumerDoc2: paperex.Broker2,
		paperex.Figure7ConsumerDoc3: paperex.Broker3,
	}
	for _, c := range cands {
		if want := wantSellers[c.Covers]; c.By != want {
			t.Errorf("candidate for %d: seller = %s, want %s", c.Covers, c.By, want)
		}
	}
}

// An ordering that indemnifies everything (including the cheapest piece)
// costs strictly more than greedy — the Section 6 minimality argument.
func TestAllPiecesCostMoreThanGreedy(t *testing.T) {
	t.Parallel()
	p := paperex.Figure7()
	all, err := InOrder(model.MustCompile(p), []int{
		paperex.Figure7ConsumerDoc1, paperex.Figure7ConsumerDoc2, paperex.Figure7ConsumerDoc3,
	})
	if err != nil {
		t.Fatalf("InOrder = %v", err)
	}
	greedy, err := Greedy(model.MustCompile(p))
	if err != nil {
		t.Fatalf("Greedy = %v", err)
	}
	// InOrder stops as soon as feasibility is reached, so it posts two
	// collaterals; starting with the cheapest piece is what hurts.
	if all.Total <= greedy.Total {
		t.Errorf("cheapest-first total %v not worse than greedy %v", all.Total, greedy.Total)
	}
}

func TestResultString(t *testing.T) {
	t.Parallel()
	r := Result{}
	if !strings.Contains(r.String(), "no indemnification found") {
		t.Errorf("String = %q", r.String())
	}
	r2 := Result{
		Splits:   []Split{{Covers: 0, Offer: model.IndemnityOffer{By: "b1"}, Amount: 50}},
		Total:    50,
		Feasible: true,
	}
	s := r2.String()
	if !strings.Contains(s, "b1 sets $50 aside") || !strings.Contains(s, "total $50") {
		t.Errorf("String = %q", s)
	}
}
