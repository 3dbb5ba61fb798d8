package interaction

import (
	"fmt"
	"sort"

	"trustseq/internal/dot"
	"trustseq/internal/model"
)

// Graph is the interaction graph I = (P, T, E). Edges are identified by
// the index of the model.Exchange they correspond to, so downstream
// structures (sequencing-graph commitment nodes) share the numbering.
// Adjacency and personas (direct trust, Section 4.2.3) are read from the
// problem's action table, the one index compiled from the problem.
type Graph struct {
	Problem    *model.Problem
	Principals []model.PartyID
	Trusted    []model.PartyID
	// Edges[i] is the interaction edge for Problem.Exchanges[i].
	Edges []Edge
}

// Edge is one element of E: principal p uses trusted intermediary t.
type Edge struct {
	Exchange  int
	Principal model.PartyID
	Trusted   model.PartyID
}

// New derives the interaction graph from a problem, validating it
// first. It is Validate followed by FromCompiled.
func New(p *model.Problem) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("interaction: %w", err)
	}
	return FromCompiled(p), nil
}

// FromCompiled derives the interaction graph from a problem that has
// already passed Validate, skipping re-validation; it is the one
// constructor, and New is Validate followed by it. The incremental path
// (core.SynthesizeIncremental) calls it directly: the edited problem
// arrives validated from the DSL loader, and re-validating would cost
// more than the whole graph patch. It compiles the problem if needed;
// the graph keeps no adjacency of its own.
func FromCompiled(p *model.Problem) *Graph {
	p.Compile()
	g := &Graph{Problem: p, Edges: make([]Edge, len(p.Exchanges))}
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			g.Trusted = append(g.Trusted, pa.ID)
		} else {
			g.Principals = append(g.Principals, pa.ID)
		}
	}
	for i, e := range p.Exchanges {
		g.Edges[i] = Edge{Exchange: i, Principal: e.Principal, Trusted: e.Trusted}
	}
	return g
}

// Degree returns the number of interaction edges incident to the party.
func (g *Graph) Degree(id model.PartyID) int {
	t := g.Problem.ActionTable()
	k, ok := t.PartySlot(id)
	if !ok {
		return 0
	}
	return t.Degree(k)
}

// Internal reports whether the party is an internal node of I (more than
// one incident edge) — exactly the nodes that get conjunction nodes in
// the sequencing graph (Section 4.1).
func (g *Graph) Internal(id model.PartyID) bool { return g.Degree(id) > 1 }

// EdgesOf returns the indices (into g.Edges) of the edges at a party,
// ascending: the party's exchanges, as Problem.ExchangesOf reads them
// from the table.
func (g *Graph) EdgesOf(id model.PartyID) []int { return g.Problem.ExchangesOf(id) }

// PersonaOf reports the principal playing the trusted component's role,
// if any.
func (g *Graph) PersonaOf(t model.PartyID) (model.PartyID, bool) { return g.Problem.PersonaOf(t) }

// Connected reports whether the interaction graph is connected (ignoring
// isolated parties with no exchanges, which are reported separately by
// Isolated). A disconnected exchange problem is two independent
// problems; the sequencing machinery handles it, but diagnosing it helps
// specification authors.
func (g *Graph) Connected() bool {
	if len(g.Edges) == 0 {
		return true
	}
	adj := make(map[model.PartyID][]model.PartyID)
	for _, e := range g.Edges {
		adj[e.Principal] = append(adj[e.Principal], e.Trusted)
		adj[e.Trusted] = append(adj[e.Trusted], e.Principal)
	}
	start := g.Edges[0].Principal
	seen := map[model.PartyID]bool{start: true}
	queue := []model.PartyID{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	for id := range adj {
		if !seen[id] {
			return false
		}
	}
	return true
}

// Isolated returns parties that participate in no exchange.
func (g *Graph) Isolated() []model.PartyID {
	var out []model.PartyID
	for _, pa := range g.Problem.Parties {
		if g.Degree(pa.ID) == 0 {
			out = append(out, pa.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DOT renders the interaction graph in the paper's visual language:
// principals as circles, trusted components as squares (personas get a
// dashed border and a "played by" label).
func (g *Graph) DOT() string {
	d := dot.New("interaction:"+g.Problem.Name, false)
	d.SetAttr("rankdir=LR")
	for _, p := range g.Principals {
		d.Node(string(p), fmt.Sprintf("shape=circle, label=%s", dot.Quote(string(p))))
	}
	for _, t := range g.Trusted {
		label := string(t)
		style := "shape=square"
		if q, ok := g.PersonaOf(t); ok {
			label = fmt.Sprintf("%s\n(played by %s)", t, q)
			style = "shape=square, style=dashed"
		}
		d.Node(string(t), fmt.Sprintf("%s, label=%s", style, dot.Quote(label)))
	}
	for _, e := range g.Edges {
		ex := g.Problem.Exchanges[e.Exchange]
		d.Edge(string(e.Principal), string(e.Trusted),
			fmt.Sprintf("label=%s", dot.Quote(fmt.Sprintf("gives %s", ex.Gives))))
	}
	return d.String()
}
