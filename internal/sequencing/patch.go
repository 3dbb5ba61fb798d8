package sequencing

import (
	"slices"

	"trustseq/internal/model"
)

// This file is the graph half of the incremental-analysis path. Given a
// base sequencing graph with its reduction and a model.Delta describing
// an edit, Patch produces the edited problem's graph and reduction
// without rebuilding either from scratch — while guaranteeing both are
// bit-identical to what a from-scratch run would produce, removal order
// included. That guarantee is load-bearing: the removal order drives
// the execution schedule and the rendered report, so anything weaker
// would break the service's byte-replay contract.
//
// Three tiers, by how much the edit dirtied:
//
//   - frontier 0 (e.g. a price retune): the graph is bit-identical, so
//     the base reduction is rebound onto a shallow copy — zero
//     reduction work.
//   - attribute or membership changes that keep the node set (red
//     flips, persona flips, indemnity re-splits): the graph is patched
//     copy-on-write in from-scratch construction order, then re-reduced
//     on the pooled int32 state. Same graph bits in, same FIFO worklist
//     → same removal trace out.
//   - node-set changes (a conjunction appearing or disappearing would
//     renumber nodes): Patch reports ok=false and the caller falls back
//     to the full pipeline.
//
// The base graph and reduction are never mutated: they stay shared,
// read-only, across concurrent requests.

// PatchOutcome says how far an incremental patch had to go.
type PatchOutcome int

const (
	// PatchReused: the edit left the sequencing graph bit-identical;
	// the base reduction was rebound as-is.
	PatchReused PatchOutcome = iota
	// PatchRereduced: graph attributes or edges were patched and the
	// reduction re-ran on the pooled state.
	PatchRereduced
)

// String names the outcome.
func (o PatchOutcome) String() string {
	if o == PatchReused {
		return "reused"
	}
	return "rereduced"
}

// PatchResult is the product of an incremental graph patch.
type PatchResult struct {
	Graph     *Graph
	Reduction *Reduction
	Outcome   PatchOutcome
	// Frontier counts the graph elements the edit dirtied: red flips,
	// persona flips, and edges inserted or deleted by conjunction
	// re-splitting. Zero means the base reduction was reused outright.
	Frontier int
}

// Patch derives edited's sequencing graph and reduction from a base
// analysis, using the model-level delta to bound the work to the edit's
// frontier. It returns ok=false when the edit is structural at the
// graph level — the delta says structural, or a conjunction node would
// appear or disappear — in which case the caller must run the full
// pipeline. edited should have passed Validate; base must come from
// NewSplit on the base problem.
func Patch(base *Graph, baseRed *Reduction, edited *model.Problem, delta *model.Delta) (*PatchResult, bool) {
	if base == nil || baseRed == nil || delta == nil || delta.Kind == model.DiffStructural {
		return nil, false
	}
	if base.offC == nil {
		base.finalize()
	}

	// Fresh red sets for every principal whose red inputs changed — and
	// for re-split principals too, whose re-added edges have no base
	// flag to inherit. Everyone else keeps the base edge flags, which
	// the red rules' per-principal locality makes exact.
	redOf := make(map[model.PartyID]map[int]bool, len(delta.RedPrincipals)+len(delta.SplitPrincipals))
	for _, list := range [2][]model.PartyID{delta.RedPrincipals, delta.SplitPrincipals} {
		for _, q := range list {
			if _, ok := redOf[q]; !ok {
				redOf[q] = edited.RedExchangesOf(q)
			}
		}
	}

	// Red flips at the touched principals' conjunctions. An exchange
	// outside its principal's conjunction has no edge to flip — exactly
	// as in from-scratch construction, where red marks only materialize
	// on conjunction edges.
	var redFlips []int32
	for _, q := range delta.RedPrincipals {
		j, ok := base.conjByAgent[q]
		if !ok {
			continue
		}
		set := redOf[q]
		for _, ei := range base.EdgesAtConjunction(j) {
			if e := base.Edges[ei]; e.Red != set[e.ID.C] {
				redFlips = append(redFlips, ei)
			}
		}
	}

	// Persona flips on commitments at the touched trusted components.
	t := edited.ActionTable()
	var personaFlips []int
	for _, tr := range delta.PersonaTrusteds {
		k, ok := t.PartySlot(tr)
		if !ok {
			continue
		}
		for _, ci := range t.At(k) {
			if base.Commitments[ci].PersonaPrincipal != t.AtPersona[ci] {
				personaFlips = append(personaFlips, int(ci))
			}
		}
	}

	// Conjunction membership for re-split principals (Section 6: an
	// accepted indemnity splits the covered exchange out; groups below
	// two members detach entirely, so the members are the principal's
	// unsplit Rest row when it holds two or more). Membership crossing
	// the two-member existence threshold would create or destroy a
	// conjunction node and renumber everything after it — structural.
	type memberPatch struct {
		j       int
		members []int32 // ascending
	}
	var memberPatches []memberPatch
	edgeDelta := 0
	for _, q := range delta.SplitPrincipals {
		var members []int32
		if k, ok := t.PartySlot(q); ok && len(t.Rest(k)) >= 2 {
			members = t.Rest(k)
		}
		j, exists := base.conjByAgent[q]
		if !exists {
			if len(members) >= 2 {
				return nil, false // conjunction would appear
			}
			continue
		}
		if len(members) < 2 {
			return nil, false // conjunction would disappear
		}
		baseEdges := base.EdgesAtConjunction(j)
		removed, added := 0, len(members)
		for _, ei := range baseEdges {
			if _, in := slices.BinarySearch(members, int32(base.Edges[ei].ID.C)); in {
				added--
			} else {
				removed++
			}
		}
		if removed == 0 && added == 0 {
			continue
		}
		edgeDelta += removed + added
		memberPatches = append(memberPatches, memberPatch{j: j, members: members})
	}

	frontier := len(redFlips) + len(personaFlips) + edgeDelta
	if frontier == 0 {
		// Bit-identical graph: rebind the base analysis onto the edited
		// problem. Shallow copies only — slices and maps stay shared.
		ng := *base
		ng.Problem = edited
		nr := *baseRed
		nr.Graph = &ng
		return &PatchResult{Graph: &ng, Reduction: &nr, Outcome: PatchReused}, true
	}

	ng := &Graph{
		Problem:      edited,
		Commitments:  base.Commitments,
		Conjunctions: base.Conjunctions,
		Edges:        base.Edges,
		conjByAgent:  base.conjByAgent,
		offC:         base.offC,
		edgeIdxC:     base.edgeIdxC,
		offJ:         base.offJ,
		edgeIdxJ:     base.edgeIdxJ,
	}
	if len(personaFlips) > 0 {
		cs := append([]Commitment(nil), base.Commitments...)
		for _, ci := range personaFlips {
			cs[ci].PersonaPrincipal = !cs[ci].PersonaPrincipal
		}
		ng.Commitments = cs
	}
	switch {
	case len(memberPatches) > 0:
		// The edge set changed: rebuild the edge list in from-scratch
		// construction order (commitments ascending, principal side
		// before trusted side) with a fresh CSR. Rare next to the flip
		// tiers, so the O(E) maps here are acceptable.
		member := make(map[EdgeID]bool, len(base.Edges))
		baseRedAt := make(map[EdgeID]bool)
		for _, e := range base.Edges {
			member[e.ID] = true
			if e.Red {
				baseRedAt[e.ID] = true
			}
		}
		for _, mp := range memberPatches {
			for _, ei := range base.EdgesAtConjunction(mp.j) {
				delete(member, base.Edges[ei].ID)
			}
			for _, ci := range mp.members {
				member[EdgeID{C: int(ci), J: mp.j}] = true
			}
		}
		edges := make([]Edge, 0, len(member))
		for _, c := range ng.Commitments {
			for _, agent := range [2]model.PartyID{c.Principal, c.Trusted} {
				j, ok := base.conjByAgent[agent]
				if !ok {
					continue
				}
				id := EdgeID{C: c.ID, J: j}
				if !member[id] {
					continue
				}
				red := false
				if agent == c.Principal {
					if set, fresh := redOf[agent]; fresh {
						red = set[c.ID]
					} else {
						red = baseRedAt[id]
					}
				}
				edges = append(edges, Edge{ID: id, Red: red})
			}
		}
		ng.Edges = edges
		ng.offC, ng.edgeIdxC, ng.offJ, ng.edgeIdxJ = nil, nil, nil, nil
		ng.finalize()
	case len(redFlips) > 0:
		edges := append([]Edge(nil), base.Edges...)
		for _, ei := range redFlips {
			edges[ei].Red = !edges[ei].Red
		}
		ng.Edges = edges
	}

	// Defense in depth: a patch that violates the graph invariants must
	// fall back to the full pipeline, never ship a corrupt analysis.
	if err := ng.Validate(); err != nil {
		return nil, false
	}
	// Full re-reduction on the patched graph, pooled state and all. The
	// reducer is deterministic in the graph bits, and the bits match a
	// from-scratch build, so the removal trace matches too — that, not
	// a seeded partial replay, is what keeps reports byte-identical.
	return &PatchResult{Graph: ng, Reduction: Reduce(ng, nil), Outcome: PatchRereduced, Frontier: frontier}, true
}
