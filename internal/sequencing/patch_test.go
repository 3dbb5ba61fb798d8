package sequencing

import (
	"reflect"
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// splitAnalysis compiles p and runs the from-scratch split pipeline.
func splitAnalysis(t testing.TB, p *model.Problem) (*Graph, *Reduction) {
	t.Helper()
	g, err := NewSplit(mustInteraction(t, p))
	if err != nil {
		t.Fatalf("NewSplit(%s) = %v", p.Name, err)
	}
	return g, Reduce(g, nil)
}

// mustPatch compiles edited, diffs it against the base graph's problem
// and applies the patch, failing the test when the patcher falls back.
func mustPatch(t *testing.T, base *Graph, baseRed *Reduction, edited *model.Problem) *PatchResult {
	t.Helper()
	c, err := model.Compile(edited)
	if err != nil {
		t.Fatalf("Compile(edited %s) = %v", edited.Name, err)
	}
	d := model.Diff(&base.Problem.Problem, edited)
	res, ok := Patch(base, baseRed, c, &d)
	if !ok {
		t.Fatalf("Patch fell back (delta %v, reason %q)", d.Kind, d.Reason)
	}
	return res
}

// requirePatchMatchesScratch asserts the patched analysis is
// bit-identical to a from-scratch run of the edited problem — edge set,
// removal trace, and verdict. This is the load-bearing contract: the
// removal order drives the schedule and the rendered report.
func requirePatchMatchesScratch(t *testing.T, res *PatchResult, edited *model.Problem) {
	t.Helper()
	sg, sr := splitAnalysis(t, edited.Clone())
	if !reflect.DeepEqual(res.Graph.Commitments, sg.Commitments) {
		t.Errorf("patched commitments differ from from-scratch")
	}
	if !reflect.DeepEqual(res.Graph.Conjunctions, sg.Conjunctions) {
		t.Errorf("patched conjunctions differ from from-scratch")
	}
	if !reflect.DeepEqual(res.Graph.Edges, sg.Edges) {
		t.Errorf("patched edges differ:\n got %v\nwant %v", res.Graph.Edges, sg.Edges)
	}
	if got, want := res.Reduction.Feasible(), sr.Feasible(); got != want {
		t.Errorf("patched feasible = %v, from-scratch = %v", got, want)
	}
	if !reflect.DeepEqual(res.Reduction.Removals, sr.Removals) {
		t.Errorf("patched removal trace differs:\n got %v\nwant %v", res.Reduction.Removals, sr.Removals)
	}
	if got, want := res.Reduction.String(), sr.String(); got != want {
		t.Errorf("patched trace rendering differs:\n got %q\nwant %q", got, want)
	}
}

// A conservation-preserving price retune leaves the graph bit-identical:
// tier 1, the base reduction is rebound without any reduction work.
func TestPatchRetuneReusesReduction(t *testing.T) {
	t.Parallel()
	base := paperex.Example1()
	g, r := splitAnalysis(t, base)
	edited := base.Clone()
	edited.Exchanges[paperex.Example1ConsumerIdx].Gives = model.Cash(101)
	edited.Exchanges[paperex.Example1SaleIdx].Gets = model.Cash(101)

	res := mustPatch(t, g, r, edited)
	if res.Outcome != PatchReused {
		t.Fatalf("outcome = %v, want reused", res.Outcome)
	}
	if res.Frontier != 0 {
		t.Errorf("frontier = %d, want 0", res.Frontier)
	}
	if res.Graph.Problem.Digest() != model.Digest(edited) {
		t.Errorf("patched graph is not bound to the edited problem")
	}
	if res.Graph == g || res.Reduction == r {
		t.Errorf("reuse must rebind copies, not hand back the base pointers")
	}
	if g.Problem.Digest() != model.Digest(base) {
		t.Errorf("base graph was rebound to the edited problem")
	}
	requirePatchMatchesScratch(t, res, edited)
}

// A RedOverride flip dirties one edge: tier 2, copy-on-write flip plus a
// full pooled re-reduction whose trace matches from-scratch.
func TestPatchRedOverrideRereduces(t *testing.T) {
	t.Parallel()
	g, r := splitAnalysis(t, paperex.Example1())
	edited := paperex.Example1()
	edited.Exchanges[paperex.Example1PurchaseIdx].RedOverride = true

	res := mustPatch(t, g, r, edited)
	if res.Outcome != PatchRereduced {
		t.Fatalf("outcome = %v, want rereduced", res.Outcome)
	}
	if res.Frontier == 0 {
		t.Errorf("frontier = 0 on a red flip")
	}
	requirePatchMatchesScratch(t, res, edited)
}

// A trust declaration changes personas (Section 4.2.3 variant 1, which
// flips Example 2 from infeasible to feasible): tier 2 on the
// commitment attributes.
func TestPatchTrustDeclRereduces(t *testing.T) {
	t.Parallel()
	g, r := splitAnalysis(t, paperex.Example2())
	edited := paperex.Example2Variant1()

	res := mustPatch(t, g, r, edited)
	if res.Outcome != PatchRereduced {
		t.Fatalf("outcome = %v, want rereduced", res.Outcome)
	}
	if !res.Reduction.Feasible() {
		t.Errorf("variant 1 should be feasible after the persona flip")
	}
	requirePatchMatchesScratch(t, res, edited)
}

// Indemnity edits re-split conjunction membership. Figure 7's consumer
// has three exchanges, so adding or removing one indemnity keeps the
// conjunction alive (≥2 members) and exercises the edge-rebuild tier in
// both directions.
func TestPatchIndemnityMembershipRebuild(t *testing.T) {
	t.Parallel()
	plain := paperex.Figure7()
	indem := paperex.Figure7()
	indem.Indemnities = append(indem.Indemnities, model.IndemnityOffer{
		By: paperex.Broker1, Covers: paperex.Figure7ConsumerDoc1, Via: paperex.Trusted1,
	})

	t.Run("add indemnity", func(t *testing.T) {
		g, r := splitAnalysis(t, plain.Clone())
		res := mustPatch(t, g, r, indem.Clone())
		if res.Outcome != PatchRereduced {
			t.Fatalf("outcome = %v, want rereduced", res.Outcome)
		}
		requirePatchMatchesScratch(t, res, indem)
	})
	t.Run("remove indemnity", func(t *testing.T) {
		g, r := splitAnalysis(t, indem.Clone())
		res := mustPatch(t, g, r, plain.Clone())
		if res.Outcome != PatchRereduced {
			t.Fatalf("outcome = %v, want rereduced", res.Outcome)
		}
		requirePatchMatchesScratch(t, res, plain)
	})
}

// Edits the patcher must refuse: structural deltas, and membership
// changes that would create or destroy a conjunction node (renumbering
// every node after it).
func TestPatchStructuralFallback(t *testing.T) {
	t.Parallel()
	t.Run("structural delta", func(t *testing.T) {
		g, r := splitAnalysis(t, paperex.Example1())
		edited := paperex.Example1()
		edited.Exchanges = append(edited.Exchanges,
			model.Exchange{Principal: paperex.Consumer, Trusted: paperex.Trusted2,
				Gives: model.Cash(1), Gets: model.Cash(1)})
		d := model.Diff(&g.Problem.Problem, edited)
		if d.Kind != model.DiffStructural {
			t.Fatalf("delta = %v, want structural", d.Kind)
		}
		if _, ok := Patch(g, r, model.MustCompile(edited), &d); ok {
			t.Errorf("Patch accepted a structural delta")
		}
	})
	t.Run("conjunction disappears", func(t *testing.T) {
		// Example 2's consumer has exactly two exchanges; indemnifying
		// one dissolves ⋀C.
		g, r := splitAnalysis(t, paperex.Example2())
		edited := paperex.Example2Indemnified()
		d := model.Diff(&g.Problem.Problem, edited)
		if d.Kind != model.DiffPatchable {
			t.Fatalf("delta = %v, want patchable", d.Kind)
		}
		if _, ok := Patch(g, r, model.MustCompile(edited), &d); ok {
			t.Errorf("Patch accepted a conjunction-destroying edit")
		}
	})
	t.Run("conjunction appears", func(t *testing.T) {
		g, r := splitAnalysis(t, paperex.Example2Indemnified())
		edited := paperex.Example2()
		d := model.Diff(&g.Problem.Problem, edited)
		if _, ok := Patch(g, r, model.MustCompile(edited), &d); ok {
			t.Errorf("Patch accepted a conjunction-creating edit")
		}
	})
	t.Run("nil inputs", func(t *testing.T) {
		g, r := splitAnalysis(t, paperex.Example1())
		d := model.Diff(&g.Problem.Problem, &g.Problem.Problem)
		if _, ok := Patch(nil, r, g.Problem, &d); ok {
			t.Errorf("Patch accepted a nil base graph")
		}
		if _, ok := Patch(g, nil, g.Problem, &d); ok {
			t.Errorf("Patch accepted a nil base reduction")
		}
		if _, ok := Patch(g, r, g.Problem, nil); ok {
			t.Errorf("Patch accepted a nil delta")
		}
	})
}

// The base graph and reduction stay shared, read-only, across patches:
// every tier must leave them untouched.
func TestPatchBaseImmutable(t *testing.T) {
	t.Parallel()
	g, r := splitAnalysis(t, paperex.Example1())
	edges := append([]Edge(nil), g.Edges...)
	commitments := append([]Commitment(nil), g.Commitments...)
	removals := append([]Removal(nil), r.Removals...)

	edited := paperex.Example1()
	edited.Exchanges[paperex.Example1PurchaseIdx].RedOverride = true
	mustPatch(t, g, r, edited)

	retuned := paperex.Example1()
	retuned.Exchanges[paperex.Example1ConsumerIdx].Gives = model.Cash(102)
	retuned.Exchanges[paperex.Example1SaleIdx].Gets = model.Cash(102)
	mustPatch(t, g, r, retuned)

	if !reflect.DeepEqual(g.Edges, edges) {
		t.Errorf("base edges mutated by Patch")
	}
	if !reflect.DeepEqual(g.Commitments, commitments) {
		t.Errorf("base commitments mutated by Patch")
	}
	if !reflect.DeepEqual(r.Removals, removals) {
		t.Errorf("base removal trace mutated by Patch")
	}
	if g.Problem.Name != "example1" {
		t.Errorf("base problem rebound: %q", g.Problem.Name)
	}
}
