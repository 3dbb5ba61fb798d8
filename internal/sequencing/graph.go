package sequencing

import (
	"fmt"
	"slices"

	"trustseq/internal/dot"
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
// equals the index of the model.Exchange it represents.
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
// kept in CSR form: per-node edge indices live in one flat array per
// side, sliced by offsets, so the reduction's adjacency hops are
// contiguous reads with no map lookups.
type Graph struct {
	Problem      *model.Compiled
	Commitments  []Commitment
	Conjunctions []Conjunction
	Edges        []Edge

	conjOf   []int32 // per party slot: its conjunction node, or -1
	offC     []int32 // commitment i's edges: edgeIdxC[offC[i]:offC[i+1]]
	edgeIdxC []int32
	offJ     []int32 // conjunction j's edges: edgeIdxJ[offJ[j]:offJ[j+1]]
	edgeIdxJ []int32
}

// Build derives the sequencing graph of Definition 4.1 from the rows of
// the compiled problem's action table, with the indemnity offers applied
// (Section 6). Each exchange is a commitment node, carrying the persona
// flag of its AtPersona entry (Section 4.2.3). A party gets a conjunction
// node when at least two of its exchanges conjoin: a trusted component
// conjoins all of its exchanges (type 1), a principal those no indemnity
// splits out — its Rest row — so an accepted offer detaches the covered
// commitment from the principal's conjunction. A principal's edge is red
// when its exchange's Red entry is (the red rules of Section 4.1).
//
// Edges are numbered by commitment, the principal's edge before the
// trusted component's, which fixes the reduction's removal order. Build
// reads nothing but the rows SameGraph compares.
func Build(p *model.Compiled) *Graph {
	t := p.ActionTable()
	g := &Graph{Problem: p, conjOf: make([]int32, len(p.Parties))}
	nj, ne := 0, 0
	for k, pa := range p.Parties {
		g.conjOf[k] = -1
		members := t.Rest(k)
		if pa.IsTrusted() {
			members = t.At(k)
		}
		if n := len(members); n >= 2 {
			g.conjOf[k] = int32(nj)
			nj++
			ne += n
		}
	}
	g.Conjunctions = make([]Conjunction, 0, nj)
	for k, pa := range p.Parties {
		if g.conjOf[k] >= 0 {
			g.Conjunctions = append(g.Conjunctions, Conjunction{ID: len(g.Conjunctions), Agent: pa.ID, TrustedAgent: pa.IsTrusted()})
		}
	}

	nc := len(p.Exchanges)
	g.Commitments = make([]Commitment, nc)
	g.Edges = make([]Edge, 0, ne)
	g.offC = make([]int32, nc+1)
	for c := range g.Commitments {
		pr, tr := t.Principal[c], t.Trusted[c]
		g.Commitments[c] = Commitment{
			ID: c, Principal: p.Parties[pr].ID, Trusted: p.Parties[tr].ID,
			PersonaPrincipal: t.AtPersona[c],
		}
		if j := g.conjOf[pr]; j >= 0 {
			if _, in := slices.BinarySearch(t.Rest(int(pr)), int32(c)); in {
				g.Edges = append(g.Edges, Edge{ID: EdgeID{C: c, J: int(j)}, Red: t.Red[c]})
			}
		}
		if j := g.conjOf[tr]; j >= 0 {
			g.Edges = append(g.Edges, Edge{ID: EdgeID{C: c, J: int(j)}})
		}
		g.offC[c+1] = int32(len(g.Edges))
	}

	// A commitment's edges are consecutive; a conjunction's are gathered
	// by counting sort, in ascending edge order, with offJ[j] serving as
	// conjunction j's fill cursor and then shifted back into place.
	g.edgeIdxC = make([]int32, ne)
	g.offJ = make([]int32, nj+1)
	for i, e := range g.Edges {
		g.edgeIdxC[i] = int32(i)
		g.offJ[e.ID.J+1]++
	}
	for j := 0; j < nj; j++ {
		g.offJ[j+1] += g.offJ[j]
	}
	g.edgeIdxJ = make([]int32, ne)
	for i, e := range g.Edges {
		g.edgeIdxJ[g.offJ[e.ID.J]] = int32(i)
		g.offJ[e.ID.J]++
	}
	copy(g.offJ[1:], g.offJ[:nj])
	g.offJ[0] = 0
	return g
}

// SameGraph reports whether Build(a) and Build(b) are equal but for
// their Problem, by comparing the rows Build reads: each party's ID and
// trusted-ness, each exchange's Principal, Trusted and AtPersona
// entries, and each principal's Rest row together with the Red entries
// of its members — wherever the row holds at least two exchanges, for a
// shorter one forms no conjunction. Equal Trusted rows make equal At
// rows. It allocates nothing.
func SameGraph(a, b *model.Compiled) bool {
	if len(a.Parties) != len(b.Parties) || len(a.Exchanges) != len(b.Exchanges) {
		return false
	}
	for k, pa := range a.Parties {
		if pb := b.Parties[k]; pa.ID != pb.ID || pa.IsTrusted() != pb.IsTrusted() {
			return false
		}
	}
	ta, tb := a.ActionTable(), b.ActionTable()
	if !slices.Equal(ta.Principal, tb.Principal) || !slices.Equal(ta.Trusted, tb.Trusted) ||
		!slices.Equal(ta.AtPersona, tb.AtPersona) {
		return false
	}
	for k, pa := range a.Parties {
		if pa.IsTrusted() {
			continue
		}
		ra, rb := ta.Rest(k), tb.Rest(k)
		if len(ra) < 2 && len(rb) < 2 {
			continue
		}
		if !slices.Equal(ra, rb) {
			return false
		}
		for _, ei := range ra {
			if ta.Red[ei] != tb.Red[ei] {
				return false
			}
		}
	}
	return true
}

// EdgesAtCommitment returns indices into g.Edges of the edges at c — a
// read-only slice of the CSR arrays.
func (g *Graph) EdgesAtCommitment(c int) []int32 { return g.edgeIdxC[g.offC[c]:g.offC[c+1]] }

// EdgesAtConjunction returns indices into g.Edges of the edges at j — a
// read-only slice of the CSR arrays.
func (g *Graph) EdgesAtConjunction(j int) []int32 { return g.edgeIdxJ[g.offJ[j]:g.offJ[j+1]] }

// ConjunctionOf returns the conjunction node ID for an agent.
func (g *Graph) ConjunctionOf(agent model.PartyID) (int, bool) {
	k, ok := g.Problem.ActionTable().PartySlot(agent)
	if !ok || g.conjOf[k] < 0 {
		return 0, false
	}
	return int(g.conjOf[k]), true
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
	// above, so this stays safe even on an edge list the CSR does not match.
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

// InteractionDOT renders the interaction graph I = (P, T, E) of Section
// 3 in the paper's visual language: principals as circles, trusted
// components as squares (personas get a dashed border and a "played by"
// label), and one edge per exchange, labelled with what the principal
// gives.
func InteractionDOT(p *model.Compiled) string {
	d := dot.New("interaction:"+p.Name, false)
	d.SetAttr("rankdir=LR")
	for _, pa := range p.Parties {
		if !pa.IsTrusted() {
			d.Node(string(pa.ID), fmt.Sprintf("shape=circle, label=%s", dot.Quote(string(pa.ID))))
		}
	}
	for _, pa := range p.Parties {
		if !pa.IsTrusted() {
			continue
		}
		label := string(pa.ID)
		style := "shape=square"
		if q, ok := p.PersonaOf(pa.ID); ok {
			label = fmt.Sprintf("%s\n(played by %s)", pa.ID, q)
			style = "shape=square, style=dashed"
		}
		d.Node(string(pa.ID), fmt.Sprintf("%s, label=%s", style, dot.Quote(label)))
	}
	for _, e := range p.Exchanges {
		d.Edge(string(e.Principal), string(e.Trusted),
			fmt.Sprintf("label=%s", dot.Quote(fmt.Sprintf("gives %s", e.Gives))))
	}
	return d.String()
}
