package distred

import (
	"fmt"
	"strconv"
	"strings"

	"trustseq/internal/model"
	"trustseq/internal/sequencing"
	"trustseq/internal/sim"
)

// Agent is one party's local reducer.
type Agent struct {
	id model.PartyID
	g  *sequencing.Graph

	// conj is the agent's conjunction node ID, or -1.
	conj int
	// mine maps commitment ID -> my edge still present.
	mine map[int]bool
	// red marks my red edges by commitment ID.
	red map[int]bool
	// otherGone marks commitments whose far-side edge is gone (removed or
	// never existed).
	otherGone map[int]bool
	// removals counts the edges this agent removed.
	removals []int
	messages int
}

var _ sim.Node = (*Agent)(nil)

// newAgent builds the local view for one party.
func newAgent(id model.PartyID, g *sequencing.Graph) *Agent {
	a := &Agent{
		id:        id,
		g:         g,
		conj:      -1,
		mine:      make(map[int]bool),
		red:       make(map[int]bool),
		otherGone: make(map[int]bool),
	}
	if j, ok := g.ConjunctionOf(id); ok {
		a.conj = j
		for _, ei := range g.EdgesAtConjunction(j) {
			e := g.Edges[ei]
			a.mine[e.ID.C] = true
			if e.Red {
				a.red[e.ID.C] = true
			}
		}
	}
	// A commitment's far side is "gone" from the start when the far
	// endpoint has no conjunction (degree-1 party) — static knowledge
	// from the shared problem specification.
	for c := range a.mine {
		if len(g.EdgesAtCommitment(c)) < 2 {
			a.otherGone[c] = true
		}
	}
	return a
}

// ID implements sim.Node.
func (a *Agent) ID() model.PartyID { return a.id }

// Init implements sim.Node.
func (a *Agent) Init(ctx *sim.Context) { a.evaluate(ctx) }

// OnMessage implements sim.Node.
func (a *Agent) OnMessage(ctx *sim.Context, m sim.Message) {
	if !strings.HasPrefix(m.Tag, "removed:") {
		return
	}
	a.messages++
	c, err := strconv.Atoi(strings.TrimPrefix(m.Tag, "removed:"))
	if err != nil {
		return
	}
	a.otherGone[c] = true
	a.evaluate(ctx)
}

// degree is the number of my remaining edges.
func (a *Agent) degree() int {
	n := 0
	for _, present := range a.mine {
		if present {
			n++
		}
	}
	return n
}

func (a *Agent) redRemaining(except int) bool {
	for c, present := range a.mine {
		if present && c != except && a.red[c] {
			return true
		}
	}
	return false
}

// evaluate applies both rules to fixpoint over the agent's local edges.
func (a *Agent) evaluate(ctx *sim.Context) {
	for {
		progress := false
		for c, present := range a.mine {
			if !present {
				continue
			}
			removable := false
			// Rule #2: my conjunction is a fringe node.
			if a.degree() == 1 {
				removable = true
			}
			// Rule #1: the commitment is a fringe node and not pre-empted
			// (or the persona clause applies).
			if !removable && a.otherGone[c] {
				if !a.redRemaining(c) || a.g.Commitments[c].PersonaPrincipal {
					removable = true
				}
			}
			if !removable {
				continue
			}
			a.mine[c] = false
			a.removals = append(a.removals, c)
			// Announce to the commitment's other endpoint.
			other := a.counterpart(c)
			if other != "" {
				ctx.SendTagged(other, "removed:"+strconv.Itoa(c))
			}
			progress = true
		}
		if !progress {
			return
		}
	}
}

// counterpart returns the other endpoint party of a commitment, if it
// has a conjunction of its own.
func (a *Agent) counterpart(c int) model.PartyID {
	cm := a.g.Commitments[c]
	var other model.PartyID
	if cm.Principal == a.id {
		other = cm.Trusted
	} else {
		other = cm.Principal
	}
	if _, ok := a.g.ConjunctionOf(other); !ok {
		return ""
	}
	return other
}

// Result reports a distributed reduction.
type Result struct {
	Feasible bool
	// RemainingEdges counts edges still present across all agents.
	RemainingEdges int
	// Removals maps each agent to the commitments whose edges it removed.
	Removals map[model.PartyID][]int
	// Messages is the number of removal announcements delivered.
	Messages int
	// Duration is the virtual time to quiescence.
	Duration sim.Time
}

// Reduce runs the distributed reduction for a problem and reports the
// collective verdict.
func Reduce(p *model.Compiled, seed int64) (*Result, error) {
	g := sequencing.Build(p)
	net := sim.NewNetwork(sim.Config{Seed: seed, Jitter: 3}, p)
	agents := make([]*Agent, 0, len(p.Parties))
	for _, pa := range p.Parties {
		ag := newAgent(pa.ID, g)
		agents = append(agents, ag)
		net.AddNode(ag)
	}
	if err := net.Run(); err != nil {
		return nil, fmt.Errorf("distred: %w", err)
	}
	res := &Result{Removals: make(map[model.PartyID][]int, len(agents)), Duration: net.Now()}
	for _, ag := range agents {
		res.RemainingEdges += ag.degree()
		if len(ag.removals) > 0 {
			res.Removals[ag.id] = append([]int(nil), ag.removals...)
		}
		res.Messages += ag.messages
	}
	res.Feasible = res.RemainingEdges == 0
	return res, nil
}
