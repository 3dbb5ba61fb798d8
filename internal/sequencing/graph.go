package sequencing

import (
	"fmt"
	"slices"
	"sort"

	"trustseq/internal/dot"
	"trustseq/internal/interaction"
	"trustseq/internal/model"
)

// EdgeID identifies an edge by its endpoints: commitment node C and
// conjunction node J (both indices into the graph's node slices).
type EdgeID struct {
	C int
	J int
}

// Edge is one red or black edge of the sequencing graph.
type Edge struct {
	ID  EdgeID
	Red bool
}

// Commitment is a commitment node: the decision to commit to one
// pairwise exchange between a principal and a trusted component. Its ID
// equals the index of the model.Exchange / interaction edge it
// represents.
type Commitment struct {
	ID        int
	Principal model.PartyID
	Trusted   model.PartyID

	// PersonaPrincipal is set when the trusted-agent role of this
	// commitment is played by the commitment's own principal (direct
	// trust, Section 4.2.3) — the escape hatch of Reduction Rule #1
	// clause 2.
	PersonaPrincipal bool
}

// Label renders the commitment the way the paper's figures do.
func (c Commitment) Label() string {
	return fmt.Sprintf("%s — %s", c.Trusted, c.Principal)
}

// Conjunction is a conjunction node ⋀agent: all commitments entered into
// by one agent, to be done all-or-none (with red edges adding order).
type Conjunction struct {
	ID    int
	Agent model.PartyID
	// TrustedAgent distinguishes type-1 conjunctions (a trusted component
	// conjoining the two sides it mediates) from principal conjunctions.
	TrustedAgent bool
}

// Graph is the sequencing graph SG = (C, J, R, B). The adjacency is
// compiled once, after construction, into CSR form: per-node edge
// indices live in one flat array per side, sliced by offsets, so the
// reduction's adjacency hops are contiguous reads with no map lookups.
type Graph struct {
	Problem      *model.Problem
	Commitments  []Commitment
	Conjunctions []Conjunction
	Edges        []Edge

	conjByAgent map[model.PartyID]int
	offC        []int32 // commitment i's edges: edgeIdxC[offC[i]:offC[i+1]]
	edgeIdxC    []int32
	offJ        []int32 // conjunction j's edges: edgeIdxJ[offJ[j]:offJ[j+1]]
	edgeIdxJ    []int32
}

// New derives the plain Definition-4.1 sequencing graph from an
// interaction graph, applying the red-edge rules (resale, poor principal,
// explicit override) and the persona flags from direct-trust
// declarations. Indemnity offers are ignored; use NewSplit to apply the
// Section 6 conjunction splitting.
func New(ig *interaction.Graph) (*Graph, error) {
	return build(ig, false)
}

// NewSplit derives the sequencing graph with the problem's indemnity
// offers applied: each accepted indemnity splits the covered exchange out
// of its principal's conjunction (Section 6 — "an indemnity allows a
// conjunction node to be split"), detaching that commitment's edge. A
// principal's conjunction survives only for groups that still hold at
// least two commitments.
func NewSplit(ig *interaction.Graph) (*Graph, error) {
	return build(ig, true)
}

func build(ig *interaction.Graph, applySplits bool) (*Graph, error) {
	p := ig.Problem
	g := &Graph{
		Problem:     p,
		conjByAgent: make(map[model.PartyID]int),
	}

	t := p.ActionTable()
	for _, e := range ig.Edges {
		g.Commitments = append(g.Commitments, Commitment{
			ID: e.Exchange, Principal: e.Principal, Trusted: e.Trusted,
			PersonaPrincipal: t.AtPersona[e.Exchange],
		})
	}
	sort.Slice(g.Commitments, func(i, j int) bool { return g.Commitments[i].ID < g.Commitments[j].ID })
	for i, c := range g.Commitments {
		if c.ID != i {
			return nil, fmt.Errorf("sequencing: non-contiguous exchange indices (%d at %d)", c.ID, i)
		}
	}

	// A party gets a conjunction node when at least two of its edges
	// conjoin, read straight from the action table's rows. Trusted
	// components conjoin all their edges (type-1). Principals conjoin all
	// their own exchanges, or with splits applied (Section 6) only their
	// unsplit Rest row: split exchanges are singleton groups, which never
	// conjoin.
	for k, pa := range p.Parties {
		members := t.Own(k)
		switch {
		case pa.IsTrusted():
			members = t.At(k)
		case applySplits:
			members = t.Rest(k)
		}
		if len(members) < 2 {
			continue // fewer than two edges: not an internal node of I
		}
		j := Conjunction{ID: len(g.Conjunctions), Agent: pa.ID, TrustedAgent: pa.IsTrusted()}
		g.conjByAgent[pa.ID] = j.ID
		g.Conjunctions = append(g.Conjunctions, j)
	}

	red := p.RedExchanges()
	for _, c := range g.Commitments {
		j, ok := g.conjByAgent[c.Principal]
		if ok && applySplits { // a split exchange is outside the Rest row
			_, ok = slices.BinarySearch(t.Rest(int(t.Principal[c.ID])), int32(c.ID))
		}
		if ok {
			g.Edges = append(g.Edges, Edge{ID: EdgeID{C: c.ID, J: j}, Red: red[c.Principal][c.ID]})
		}
		if j, ok := g.conjByAgent[c.Trusted]; ok {
			g.Edges = append(g.Edges, Edge{ID: EdgeID{C: c.ID, J: j}})
		}
	}
	g.finalize()
	return g, nil
}

// finalize compiles the CSR adjacency from g.Edges by counting sort.
// Filling in ascending edge-index order reproduces the append order of
// the previous map-of-slices form exactly, so every removal trace that
// depends on neighbor enumeration order is unchanged.
func (g *Graph) finalize() {
	nc, nj, ne := len(g.Commitments), len(g.Conjunctions), len(g.Edges)
	g.offC = make([]int32, nc+1)
	g.offJ = make([]int32, nj+1)
	for _, e := range g.Edges {
		g.offC[e.ID.C+1]++
		g.offJ[e.ID.J+1]++
	}
	for i := 0; i < nc; i++ {
		g.offC[i+1] += g.offC[i]
	}
	for i := 0; i < nj; i++ {
		g.offJ[i+1] += g.offJ[i]
	}
	g.edgeIdxC = make([]int32, ne)
	g.edgeIdxJ = make([]int32, ne)
	curC := make([]int32, nc)
	curJ := make([]int32, nj)
	copy(curC, g.offC[:nc])
	copy(curJ, g.offJ[:nj])
	for i, e := range g.Edges {
		g.edgeIdxC[curC[e.ID.C]] = int32(i)
		curC[e.ID.C]++
		g.edgeIdxJ[curJ[e.ID.J]] = int32(i)
		curJ[e.ID.J]++
	}
}

// EdgesAtCommitment returns indices into g.Edges of the edges at c — a
// read-only slice of the CSR arrays.
func (g *Graph) EdgesAtCommitment(c int) []int32 {
	if g.offC == nil {
		g.finalize()
	}
	return g.edgeIdxC[g.offC[c]:g.offC[c+1]]
}

// EdgesAtConjunction returns indices into g.Edges of the edges at j — a
// read-only slice of the CSR arrays.
func (g *Graph) EdgesAtConjunction(j int) []int32 {
	if g.offJ == nil {
		g.finalize()
	}
	return g.edgeIdxJ[g.offJ[j]:g.offJ[j+1]]
}

// ConjunctionOf returns the conjunction node ID for an agent.
func (g *Graph) ConjunctionOf(agent model.PartyID) (int, bool) {
	j, ok := g.conjByAgent[agent]
	return j, ok
}

// RedCount returns the number of red edges.
func (g *Graph) RedCount() int {
	n := 0
	for _, e := range g.Edges {
		if e.Red {
			n++
		}
	}
	return n
}

// Validate checks the structural invariants of Definition 4.1: the graph
// is bipartite by construction; every edge connects an existing
// commitment and conjunction; red edges only occur at principal
// conjunctions.
func (g *Graph) Validate() error {
	for _, e := range g.Edges {
		if e.ID.C < 0 || e.ID.C >= len(g.Commitments) {
			return fmt.Errorf("sequencing: edge %v references unknown commitment", e.ID)
		}
		if e.ID.J < 0 || e.ID.J >= len(g.Conjunctions) {
			return fmt.Errorf("sequencing: edge %v references unknown conjunction", e.ID)
		}
		j := g.Conjunctions[e.ID.J]
		c := g.Commitments[e.ID.C]
		if j.Agent != c.Principal && j.Agent != c.Trusted {
			return fmt.Errorf("sequencing: edge %v connects commitment %s to foreign conjunction ⋀%s",
				e.ID, c.Label(), j.Agent)
		}
		if e.Red && j.TrustedAgent {
			return fmt.Errorf("sequencing: red edge %v at trusted conjunction ⋀%s", e.ID, j.Agent)
		}
	}
	// Count degrees straight from the edge list: the IDs were range-checked
	// above, so this stays safe even on graphs the CSR was never built for.
	degC := make([]int, len(g.Commitments))
	for _, e := range g.Edges {
		degC[e.ID.C]++
	}
	for ci, deg := range degC {
		if deg > 2 {
			return fmt.Errorf("sequencing: commitment %d has %d edges (max 2: one per endpoint)",
				ci, deg)
		}
	}
	return nil
}

// DOT renders the sequencing graph: hexagons for commitments, squares
// for conjunctions, bold red edges for ordering constraints (the paper's
// Figures 3 and 4). When a non-nil removed set is supplied, removed
// edges are drawn dotted and grey — rendering the reduced graph
// (Figures 5 and 6).
func (g *Graph) DOT(removed map[EdgeID]bool) string {
	d := dot.New("sequencing:"+g.Problem.Name, false)
	d.SetAttr("rankdir=LR")
	for _, c := range g.Commitments {
		id := fmt.Sprintf("c%d", c.ID)
		label := c.Label()
		if c.PersonaPrincipal {
			label += "\n(persona)"
		}
		d.Node(id, fmt.Sprintf("shape=hexagon, label=%s", dot.Quote(label)))
	}
	for _, j := range g.Conjunctions {
		id := fmt.Sprintf("j%d", j.ID)
		d.Node(id, fmt.Sprintf("shape=square, label=%s", dot.Quote("⋀"+string(j.Agent))))
	}
	for _, e := range g.Edges {
		attrs := "color=black"
		if e.Red {
			attrs = "color=red, penwidth=2"
		}
		if removed != nil && removed[e.ID] {
			attrs += ", style=dotted, color=grey"
		}
		d.Edge(fmt.Sprintf("c%d", e.ID.C), fmt.Sprintf("j%d", e.ID.J), attrs)
	}
	return d.String()
}
