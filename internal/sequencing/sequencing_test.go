package sequencing

import (
	"math/rand"
	"strings"
	"testing"

	"trustseq/internal/interaction"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

func buildGraph(t testing.TB, p *model.Problem) *Graph {
	t.Helper()
	ig, err := interaction.New(p)
	if err != nil {
		t.Fatalf("interaction.New(%s) = %v", p.Name, err)
	}
	g, err := New(ig)
	if err != nil {
		t.Fatalf("sequencing.New(%s) = %v", p.Name, err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate(%s) = %v", p.Name, err)
	}
	return g
}

// --- Structure of the paper's graphs -------------------------------------

// Figure 3: Example 1 yields 4 commitments, 3 conjunctions (⋀T1, ⋀B,
// ⋀T2) and 6 edges, exactly one of them red (⋀B to the broker–Trusted1
// commitment).
func TestGraphStructureExample1(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example1())
	if got := len(g.Commitments); got != 4 {
		t.Errorf("commitments = %d, want 4", got)
	}
	if got := len(g.Conjunctions); got != 3 {
		t.Errorf("conjunctions = %d, want 3", got)
	}
	if got := len(g.Edges); got != 6 {
		t.Errorf("edges = %d, want 6", got)
	}
	if got := g.RedCount(); got != 1 {
		t.Errorf("red edges = %d, want 1", got)
	}
	jb, ok := g.ConjunctionOf(paperex.Broker)
	if !ok {
		t.Fatalf("no conjunction for broker")
	}
	for _, ei := range g.EdgesAtConjunction(jb) {
		e := g.Edges[ei]
		wantRed := e.ID.C == paperex.Example1SaleIdx
		if e.Red != wantRed {
			t.Errorf("edge (c%d,⋀b) red = %v, want %v", e.ID.C, e.Red, wantRed)
		}
	}
	// The consumer and producer have degree 1: no conjunction nodes.
	if _, ok := g.ConjunctionOf(paperex.Consumer); ok {
		t.Errorf("consumer has a conjunction node")
	}
	if _, ok := g.ConjunctionOf(paperex.Producer); ok {
		t.Errorf("producer has a conjunction node")
	}
}

// Figure 4: Example 2 yields 8 commitments, 7 conjunctions (⋀C, ⋀B1,
// ⋀B2, ⋀T1..⋀T4) and 14 edges, two red.
func TestGraphStructureExample2(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example2())
	if got := len(g.Commitments); got != 8 {
		t.Errorf("commitments = %d, want 8", got)
	}
	if got := len(g.Conjunctions); got != 7 {
		t.Errorf("conjunctions = %d, want 7", got)
	}
	if got := len(g.Edges); got != 14 {
		t.Errorf("edges = %d, want 14", got)
	}
	if got := g.RedCount(); got != 2 {
		t.Errorf("red edges = %d, want 2", got)
	}
}

// --- E1/E2: the paper's feasibility verdicts ------------------------------

func TestReduceExample1Feasible(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example1())
	r := Reduce(g, nil)
	if !r.Feasible() {
		t.Fatalf("Example 1 not feasible:\n%s", r.String())
	}
	if got := len(r.Removals); got != 6 {
		t.Errorf("removals = %d, want 6", got)
	}
}

func TestReduceExample2Impasse(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example2())
	r := Reduce(g, nil)
	if r.Feasible() {
		t.Fatalf("Example 2 reported feasible:\n%s", r.String())
	}
	// Section 4.2.2: exactly four edges can be removed before the impasse,
	// leaving ten of the fourteen.
	if got := len(r.Removals); got != 4 {
		t.Errorf("removals before impasse = %d, want 4", got)
	}
	if got := len(r.Remaining); got != 10 {
		t.Errorf("remaining = %d, want 10", got)
	}
	if msg := r.Impasse(); !strings.Contains(msg, "pre-empted by a red edge") {
		t.Errorf("Impasse() = %q, want red-edge diagnosis", msg)
	}
}

// --- E3: Section 4.2.3 direct-trust variants -------------------------------

func TestReduceVariant1SourceTrustsBrokerFeasible(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example2Variant1())
	// The broker1–trusted2 commitment carries the persona flag.
	if !g.Commitments[paperex.Example2B1Purchase].PersonaPrincipal {
		t.Fatalf("b1–t2 commitment not marked persona")
	}
	if g.Commitments[paperex.Example2S1Provide].PersonaPrincipal {
		t.Fatalf("s1–t2 commitment wrongly marked persona")
	}
	r := Reduce(g, nil)
	if !r.Feasible() {
		t.Fatalf("variant 1 not feasible:\n%s\n%s", r.String(), r.Impasse())
	}
	// The persona clause must actually have been exercised.
	persona := false
	for _, rm := range r.Removals {
		if rm.ByPersona {
			persona = true
		}
	}
	if !persona {
		t.Errorf("reduction never used the persona clause")
	}
}

func TestReduceVariant2BrokerTrustsSourceInfeasible(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example2Variant2())
	if !g.Commitments[paperex.Example2S1Provide].PersonaPrincipal {
		t.Fatalf("s1–t2 commitment not marked persona")
	}
	r := Reduce(g, nil)
	if r.Feasible() {
		t.Fatalf("variant 2 reported feasible — trust asymmetry lost:\n%s", r.String())
	}
	// Same impasse shape as the base case: four removals.
	if got := len(r.Removals); got != 4 {
		t.Errorf("removals = %d, want 4", got)
	}
}

// --- E4: the poor broker of Section 5 --------------------------------------

func TestReducePoorBrokerInfeasible(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.PoorBroker())
	if got := g.RedCount(); got != 2 {
		t.Fatalf("poor broker red edges = %d, want 2", got)
	}
	r := Reduce(g, nil)
	if r.Feasible() {
		t.Fatalf("poor broker reported feasible:\n%s", r.String())
	}
	if msg := r.Impasse(); !strings.Contains(msg, "2 red edges") {
		t.Errorf("Impasse() = %q, want two-red-edges diagnosis", msg)
	}
	// A sufficiently funded broker restores feasibility.
	p := paperex.PoorBroker()
	for i := range p.Parties {
		if p.Parties[i].ID == paperex.Broker {
			p.Parties[i].Endowment = paperex.WholesalePrice
		}
	}
	if r := Reduce(buildGraph(t, p), nil); !r.Feasible() {
		t.Errorf("funded broker infeasible:\n%s", r.String())
	}
}

// --- E6: indemnity split makes Example 2 feasible ---------------------------

func TestReduceExample2IndemnifiedFeasible(t *testing.T) {
	t.Parallel()
	p := paperex.Example2Indemnified()
	// The split removes the consumer conjunction entirely (its two
	// exchanges fall into singleton groups), which in graph terms deletes
	// ⋀C's edges. Conjunction groups drive graph construction through
	// SplitGraph below.
	g, err := NewSplit(mustInteraction(t, p))
	if err != nil {
		t.Fatalf("NewSplit = %v", err)
	}
	r := Reduce(g, nil)
	if !r.Feasible() {
		t.Fatalf("indemnified Example 2 infeasible:\n%s\n%s", r.String(), r.Impasse())
	}
}

func mustInteraction(t testing.TB, p *model.Problem) *interaction.Graph {
	t.Helper()
	ig, err := interaction.New(p)
	if err != nil {
		t.Fatalf("interaction.New = %v", err)
	}
	return ig
}

// --- E9: confluence of the reduction (Section 4.2.4) -----------------------

func TestReductionConfluenceOnExamples(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g, err := NewSplit(mustInteraction(t, p))
			if err != nil {
				t.Fatalf("NewSplit = %v", err)
			}
			want := Reduce(g, nil).Feasible()
			if got := reduceNaive(g).Feasible(); got != want {
				t.Errorf("naive verdict %v != worklist verdict %v", got, want)
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 50; trial++ {
				r := reduceRandomOrder(g, rng)
				if r.Feasible() != want {
					t.Fatalf("random-order verdict %v != %v (trial %d)", r.Feasible(), want, trial)
				}
			}
		})
	}
}

// All reducers must also agree on the NUMBER of removable edges, not just
// the verdict (the remaining graph is order-independent in size for these
// instances).
func TestReductionRemovalCountsAgree(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		g, err := NewSplit(mustInteraction(t, p))
		if err != nil {
			t.Fatalf("NewSplit(%s) = %v", name, err)
		}
		a, b := Reduce(g, nil), reduceNaive(g)
		if len(a.Removals) != len(b.Removals) {
			t.Errorf("%s: worklist removed %d, naive removed %d", name, len(a.Removals), len(b.Removals))
		}
	}
}

// RemovedSorted must enumerate the same edge set in the same (C, J)
// order regardless of which removal order the reducer followed.
func TestRemovedSortedOrderIndependent(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for name, p := range paperex.All() {
		g, err := NewSplit(mustInteraction(t, p))
		if err != nil {
			t.Fatalf("NewSplit(%s) = %v", name, err)
		}
		want := Reduce(g, nil).RemovedSorted()
		for i := 1; i < len(want); i++ {
			prev, cur := want[i-1], want[i]
			if cur.C < prev.C || (cur.C == prev.C && cur.J < prev.J) {
				t.Fatalf("%s: RemovedSorted out of order at %d: %v after %v", name, i, cur, prev)
			}
		}
		for trial := 0; trial < 5; trial++ {
			got := reduceRandomOrder(g, rng).RemovedSorted()
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d removed IDs, want %d", name, trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: RemovedSorted[%d] = %v, want %v", name, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// --- DOT output -------------------------------------------------------------

func TestDOTRendering(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example1())
	out := g.DOT(nil)
	for _, want := range []string{"shape=hexagon", "shape=square", "color=red", "⋀b"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
	r := Reduce(g, nil)
	reduced := g.DOT(r.RemovedSet())
	if !strings.Contains(reduced, "style=dotted") {
		t.Errorf("reduced DOT missing dotted edges")
	}
}

func TestGraphValidateRejectsCorruption(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example1())
	g.Edges[0].ID.C = 99
	if err := g.Validate(); err == nil {
		t.Fatalf("Validate accepted unknown commitment")
	}
}

func TestRuleString(t *testing.T) {
	t.Parallel()
	if Rule1.String() != "Rule #1" || Rule2.String() != "Rule #2" || RuleNone.String() != "no rule" {
		t.Fatalf("Rule.String wrong")
	}
}

func TestReductionStringMentionsVerdict(t *testing.T) {
	t.Parallel()
	feasible := Reduce(buildGraph(t, paperex.Example1()), nil)
	if !strings.Contains(feasible.String(), "feasible") {
		t.Errorf("feasible trace missing verdict:\n%s", feasible.String())
	}
	infeasible := Reduce(buildGraph(t, paperex.Example2()), nil)
	if !strings.Contains(infeasible.String(), "IMPASSE") {
		t.Errorf("infeasible trace missing impasse:\n%s", infeasible.String())
	}
	if infeasible.Impasse() == "" {
		t.Errorf("Impasse() empty for infeasible reduction")
	}
	if feasible.Impasse() != "" {
		t.Errorf("Impasse() non-empty for feasible reduction")
	}
}

// ReducePreferred honours the supplied priority among applicable edges
// and reaches the same verdict as the greedy reducer.
func TestReducePreferredFollowsPriority(t *testing.T) {
	t.Parallel()
	g := buildGraph(t, paperex.Example1())
	// Prefer the producer-side edge first, mirroring the Section 4.2.2
	// walkthrough; the first removal must be (commitment 3, ⋀t2).
	r := ReducePreferred(g, func(e Edge) int {
		if e.ID.C == paperex.Example1ProducerIdx {
			return 0
		}
		return 1 + e.ID.C
	})
	if !r.Feasible() {
		t.Fatalf("infeasible")
	}
	first := r.Removals[0]
	if first.Edge.ID.C != paperex.Example1ProducerIdx {
		t.Fatalf("first removal = c%d, want the producer commitment", first.Edge.ID.C)
	}
	if len(r.Removals) != len(Reduce(g, nil).Removals) {
		t.Fatalf("preferred reducer removed a different number of edges")
	}
}
