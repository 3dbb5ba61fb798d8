package sequencing

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"trustseq/internal/obs"
)

// Rule identifies which reduction rule removed an edge.
type Rule int

// The two reduction rules of Section 4.2.1.
const (
	RuleNone Rule = iota
	Rule1         // commitment node on the fringe
	Rule2         // conjunction node on the fringe
)

// String returns the paper's name for the rule.
func (r Rule) String() string {
	switch r {
	case Rule1:
		return "Rule #1"
	case Rule2:
		return "Rule #2"
	default:
		return "no rule"
	}
}

// Removal records one reduction step: which edge was removed, by which
// rule, and whether Rule #1's persona clause (clause 2) was required.
type Removal struct {
	Edge      Edge
	Rule      Rule
	ByPersona bool
}

// Reduction is the result of reducing a sequencing graph: the ordered
// removal trace and the set of edges that could not be removed. Per
// Section 4.2.4 the feasibility verdict is independent of the order in
// which applicable reductions were applied (property-tested in
// reduce_test.go).
type Reduction struct {
	Graph    *Graph
	Removals []Removal
	// Remaining holds the edges left when no further reduction applies.
	Remaining []Edge
}

// Feasible implements the Section 4.2.4 feasibility test: the reduced
// graph is feasible iff all edges have been removed (R' ∪ B' = ∅).
func (r *Reduction) Feasible() bool { return len(r.Remaining) == 0 }

// RemovedSet returns the removed edges keyed by ID, for DOT rendering.
func (r *Reduction) RemovedSet() map[EdgeID]bool {
	out := make(map[EdgeID]bool, len(r.Removals))
	for _, rm := range r.Removals {
		out[rm.Edge.ID] = true
	}
	return out
}

// RemovedSorted returns the removed edge IDs sorted by commitment then
// conjunction — a deterministic enumeration independent of the removal
// order the reducer happened to follow.
func (r *Reduction) RemovedSorted() []EdgeID {
	out := make([]EdgeID, len(r.Removals))
	for i, rm := range r.Removals {
		out[i] = rm.Edge.ID
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].C != out[j].C {
			return out[i].C < out[j].C
		}
		return out[i].J < out[j].J
	})
	return out
}

// String renders the trace in the style of the Section 4.2.2 walkthrough.
func (r *Reduction) String() string {
	var b strings.Builder
	for i, rm := range r.Removals {
		c := r.Graph.Commitments[rm.Edge.ID.C]
		j := r.Graph.Conjunctions[rm.Edge.ID.J]
		persona := ""
		if rm.ByPersona {
			persona = " (persona clause)"
		}
		fmt.Fprintf(&b, "%2d. %s removes edge between %q and ⋀%s%s\n",
			i+1, rm.Rule, c.Label(), j.Agent, persona)
	}
	if len(r.Remaining) == 0 {
		b.WriteString("feasible: all edges removed\n")
	} else {
		fmt.Fprintf(&b, "IMPASSE with %d edges remaining; not shown feasible\n", len(r.Remaining))
	}
	return b.String()
}

// state tracks remaining edges during a reduction. All per-node counts
// are dense int32 arrays indexed like the graph's node slices, recycled
// through a sync.Pool so a reduction over an already-seen size class
// allocates nothing.
type state struct {
	g       *Graph
	present []bool  // indexed like g.Edges
	degC    []int32 // remaining degree of each commitment node
	degJ    []int32 // remaining degree of each conjunction node
	redAtJ  []int32 // remaining red edges at each conjunction node

	// Scratch for neighbors: one buffer reused across every removal, plus
	// an epoch-stamped dedup array (the adjacency hops below revisit the
	// same edges many times).
	nscratch []int32
	nstamp   []int32
	nepoch   int32

	// Worklist scratch for Reduce, kept here so the pool recycles it
	// with the rest of the reduction state.
	work   []int32
	inWork []bool
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// boolSlice returns a zeroed bool slice of length n, reusing buf's
// backing array when it is large enough.
func boolSlice(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

// i32Slice returns a zeroed int32 slice of length n, reusing buf's
// backing array when it is large enough.
func i32Slice(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func newState(g *Graph) *state {
	s := statePool.Get().(*state)
	s.g = g
	s.present = boolSlice(s.present, len(g.Edges))
	s.degC = i32Slice(s.degC, len(g.Commitments))
	s.degJ = i32Slice(s.degJ, len(g.Conjunctions))
	s.redAtJ = i32Slice(s.redAtJ, len(g.Conjunctions))
	s.nstamp = i32Slice(s.nstamp, len(g.Edges))
	s.nepoch = 0
	for i, e := range g.Edges {
		s.present[i] = true
		s.degC[e.ID.C]++
		s.degJ[e.ID.J]++
		if e.Red {
			s.redAtJ[e.ID.J]++
		}
	}
	return s
}

// release returns the state's buffers to the pool. The caller must not
// touch s afterwards.
func (s *state) release() {
	s.g = nil
	statePool.Put(s)
}

// applicable determines whether edge index ei may be removed now, and by
// which rule. Rule #1 requires the commitment node on the fringe and
// either no pre-empting red edge at the conjunction (a red edge other
// than ei itself — the formal definition's ∄(b,j)∈R with b≠c, evaluated
// against the remaining graph, as the Example 1 walkthrough requires) or
// the persona clause. Rule #2 requires the conjunction on the fringe.
func (s *state) applicable(ei int) (Rule, bool) {
	if !s.present[ei] {
		return RuleNone, false
	}
	e := s.g.Edges[ei]
	// Rule #2: conjunction fringe.
	if s.degJ[e.ID.J] == 1 {
		return Rule2, false
	}
	// Rule #1: commitment fringe.
	if s.degC[e.ID.C] != 1 {
		return RuleNone, false
	}
	others := s.redAtJ[e.ID.J]
	if e.Red {
		others-- // the edge itself does not pre-empt its own removal
	}
	if others == 0 {
		return Rule1, false
	}
	if s.g.Commitments[e.ID.C].PersonaPrincipal {
		return Rule1, true
	}
	return RuleNone, false
}

func (s *state) remove(ei int) {
	e := s.g.Edges[ei]
	s.present[ei] = false
	s.degC[e.ID.C]--
	s.degJ[e.ID.J]--
	if e.Red {
		s.redAtJ[e.ID.J]--
	}
}

func (s *state) remaining() []Edge {
	n := 0
	for _, p := range s.present {
		if p {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Edge, 0, n)
	for i, p := range s.present {
		if p {
			out = append(out, s.g.Edges[i])
		}
	}
	return out
}

// neighbors returns edge indices whose applicability may have changed
// after removing edge ei: the other edges at both endpoints, and — since
// removing a red edge can unblock Rule #1 anywhere at its conjunction —
// all edges at the conjunction. The result is deduplicated, filtered to
// present edges not already queued (skip), and written into a scratch
// buffer reused across removals; it is valid until the next call.
func (s *state) neighbors(ei int, skip []bool) []int32 {
	s.nepoch++
	out := s.nscratch[:0]
	e := s.g.Edges[ei]
	out = s.addNeighbors(out, s.g.EdgesAtCommitment(e.ID.C), skip)
	out = s.addNeighbors(out, s.g.EdgesAtConjunction(e.ID.J), skip)
	// Removing the last sibling at a commitment can make that commitment
	// a fringe node; its other-end conjunction edges are covered above.
	// Removing an edge at a conjunction can make another commitment's
	// edge removable via Rule #2 or unblock a pre-empted Rule #1; both
	// are at the same conjunction, covered above. One more hop: when a
	// commitment at this conjunction just became fringe, its *other* edge
	// (at a different conjunction) may now be removable.
	for _, sib := range s.g.EdgesAtConjunction(e.ID.J) {
		out = s.addNeighbors(out, s.g.EdgesAtCommitment(s.g.Edges[sib].ID.C), skip)
	}
	for _, sib := range s.g.EdgesAtCommitment(e.ID.C) {
		out = s.addNeighbors(out, s.g.EdgesAtConjunction(s.g.Edges[sib].ID.J), skip)
	}
	s.nscratch = out
	return out
}

// addNeighbors appends the present, unqueued, not-yet-stamped edges of
// indices to out. A method instead of a closure: the closure form
// escaped to the heap once per removal.
func (s *state) addNeighbors(out []int32, indices []int32, skip []bool) []int32 {
	for _, n := range indices {
		if s.nstamp[n] == s.nepoch || !s.present[n] || (skip != nil && skip[n]) {
			continue
		}
		s.nstamp[n] = s.nepoch
		out = append(out, n)
	}
	return out
}

// Reduce performs greedy reduction with a worklist, removing applicable
// edges until none remains applicable. Section 4.2.4 licenses greediness:
// any applicable reduction may be applied in any order without changing
// the feasibility verdict. Telemetry adds a span around the reduction,
// one trace event per rule application (the replayable removal audit),
// and per-rule counters; nil telemetry disables everything and the cost
// collapses to one branch per removal.
func Reduce(g *Graph, tel *obs.Telemetry) *Reduction {
	var sp obs.Span
	if tel.Enabled() {
		sp = tel.Trace().StartSpan("sequencing.reduce",
			obs.Int("edges", len(g.Edges)),
			obs.Int("commitments", len(g.Commitments)),
			obs.Int("conjunctions", len(g.Conjunctions)))
	}
	s := newState(g)
	red := &Reduction{Graph: g, Removals: make([]Removal, 0, len(g.Edges))}
	work := i32Slice(s.work, len(g.Edges))
	inWork := boolSlice(s.inWork, len(g.Edges))
	for i := range work {
		work[i] = int32(i)
		inWork[i] = true
	}
	// FIFO via a head index: the same dequeue order as the previous
	// work[0]/work[1:] slicing, without losing the buffer's front capacity.
	for head := 0; head < len(work); head++ {
		ei := int(work[head])
		inWork[ei] = false
		rule, byPersona := s.applicable(ei)
		if rule == RuleNone {
			continue
		}
		s.remove(ei)
		red.Removals = append(red.Removals, Removal{Edge: g.Edges[ei], Rule: rule, ByPersona: byPersona})
		if tel.Enabled() {
			observeRemoval(tel, sp, g.Edges[ei], rule, byPersona)
		}
		for _, n := range s.neighbors(ei, inWork) {
			work = append(work, n)
			inWork[n] = true
		}
	}
	s.work, s.inWork = work, inWork
	red.Remaining = s.remaining()
	s.release()
	if tel.Enabled() {
		tel.Reg().Counter("sequencing.reductions").Inc()
		sp.End(
			obs.Int("removals", len(red.Removals)),
			obs.Int("remaining", len(red.Remaining)),
			obs.Bool("feasible", red.Feasible()))
	}
	return red
}

// observeRemoval records one rule application on the trace and the
// per-rule counters.
func observeRemoval(tel *obs.Telemetry, sp obs.Span, e Edge, rule Rule, byPersona bool) {
	reg := tel.Reg()
	switch rule {
	case Rule1:
		reg.Counter("sequencing.removals.rule1").Inc()
	case Rule2:
		reg.Counter("sequencing.removals.rule2").Inc()
	}
	if byPersona {
		reg.Counter("sequencing.removals.persona").Inc()
	}
	sp.Event("sequencing.remove",
		obs.Str("rule", rule.String()),
		obs.Int("commitment", e.ID.C),
		obs.Int("conjunction", e.ID.J),
		obs.Bool("red", e.Red),
		obs.Bool("persona", byPersona))
}

// Impasse describes why a reduction stopped, for diagnostics: the fringe
// commitments blocked by red edges and the conjunctions with multiple red
// edges (the Section 5 "two red edges" impossibility).
func (r *Reduction) Impasse() string {
	if r.Feasible() {
		return ""
	}
	s := newState(r.Graph)
	for _, rm := range r.Removals {
		for i, e := range r.Graph.Edges {
			if e.ID == rm.Edge.ID && s.present[i] {
				s.remove(i)
				break
			}
		}
	}
	defer s.release()
	var lines []string
	for j := range r.Graph.Conjunctions {
		if s.redAtJ[j] >= 2 {
			lines = append(lines, fmt.Sprintf("conjunction ⋀%s has %d red edges, each required first",
				r.Graph.Conjunctions[j].Agent, s.redAtJ[j]))
		}
	}
	for i, present := range s.present {
		if !present {
			continue
		}
		e := r.Graph.Edges[i]
		if s.degC[e.ID.C] == 1 && !e.Red && s.redAtJ[e.ID.J] > 0 {
			c := r.Graph.Commitments[e.ID.C]
			lines = append(lines, fmt.Sprintf("commitment %q blocked: pre-empted by a red edge at ⋀%s",
				c.Label(), r.Graph.Conjunctions[e.ID.J].Agent))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// ReducePreferred applies applicable reductions in the order induced by
// the supplied preference (smaller value = removed earlier among the
// currently applicable edges). It reproduces specific published
// reduction orders — e.g. the Section 4.2.2 walkthrough — while the
// verdict stays order-independent (Section 4.2.4).
func ReducePreferred(g *Graph, priority func(Edge) int) *Reduction {
	s := newState(g)
	red := &Reduction{Graph: g}
	for {
		best, bestPri := -1, 0
		for ei := range g.Edges {
			rule, _ := s.applicable(ei)
			if rule == RuleNone {
				continue
			}
			pri := priority(g.Edges[ei])
			if best < 0 || pri < bestPri {
				best, bestPri = ei, pri
			}
		}
		if best < 0 {
			break
		}
		rule, byPersona := s.applicable(best)
		s.remove(best)
		red.Removals = append(red.Removals, Removal{Edge: g.Edges[best], Rule: rule, ByPersona: byPersona})
	}
	red.Remaining = s.remaining()
	s.release()
	return red
}
