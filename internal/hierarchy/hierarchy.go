package hierarchy

import (
	"fmt"

	"trustseq/internal/model"
)

// IntermediaryID names an intermediary service in a topology.
type IntermediaryID string

// Topology is the trust structure of a market.
type Topology struct {
	// PrincipalTrust maps each principal to the intermediaries it trusts.
	PrincipalTrust map[model.PartyID][]IntermediaryID
	// Hierarchy lists trust edges between intermediaries: Truster trusts
	// Trustee. Trust is directional, exactly as between principals.
	Hierarchy []IntermediaryTrust
}

// IntermediaryTrust is one hierarchy edge.
type IntermediaryTrust struct {
	Truster, Trustee IntermediaryID
}

// trusts reports whether a trusts b.
func (t *Topology) trusts(a, b IntermediaryID) bool {
	for _, e := range t.Hierarchy {
		if e.Truster == a && e.Trustee == b {
			return true
		}
	}
	return false
}

// linked reports whether a hop between two intermediaries is traversable
// (one of them trusts the other), and who plays the hop's trusted role
// (the trustee).
func (t *Topology) linked(a, b IntermediaryID) (persona IntermediaryID, ok bool) {
	switch {
	case t.trusts(a, b):
		return b, true
	case t.trusts(b, a):
		return a, true
	default:
		return "", false
	}
}

// Path finds a chain of intermediaries u1..uk with u1 trusted by `buyer`,
// uk trusted by `seller`, and every consecutive pair linked in the
// hierarchy. It returns the shortest such chain (BFS).
func (t *Topology) Path(buyer, seller model.PartyID) ([]IntermediaryID, bool) {
	starts := t.PrincipalTrust[buyer]
	goals := make(map[IntermediaryID]bool)
	for _, u := range t.PrincipalTrust[seller] {
		goals[u] = true
	}
	if len(starts) == 0 || len(goals) == 0 {
		return nil, false
	}
	type node struct {
		id   IntermediaryID
		path []IntermediaryID
	}
	seen := make(map[IntermediaryID]bool)
	var queue []node
	for _, s := range starts {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, node{id: s, path: []IntermediaryID{s}})
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if goals[cur.id] {
			return cur.path, true
		}
		for _, next := range t.neighbors(cur.id) {
			if seen[next] {
				continue
			}
			seen[next] = true
			queue = append(queue, node{id: next, path: append(append([]IntermediaryID(nil), cur.path...), next)})
		}
	}
	return nil, false
}

func (t *Topology) neighbors(a IntermediaryID) []IntermediaryID {
	seen := make(map[IntermediaryID]bool)
	var out []IntermediaryID
	for _, e := range t.Hierarchy {
		var other IntermediaryID
		switch a {
		case e.Truster:
			other = e.Trustee
		case e.Trustee:
			other = e.Truster
		default:
			continue
		}
		if !seen[other] {
			seen[other] = true
			out = append(out, other)
		}
	}
	return out
}

// Enable builds the exchange problem realizing a sale of `item` from
// seller to buyer at `price`, through the composite escrow chain the
// topology admits. Intermediaries charge no margin: every hop moves the
// same price and the same document. It fails when no chain connects the
// two trust sets. The problem comes back compiled.
func (t *Topology) Enable(buyer, seller model.PartyID, item model.ItemID, price model.Money) (*model.Compiled, error) {
	if price <= 0 {
		return nil, fmt.Errorf("hierarchy: price must be positive")
	}
	path, ok := t.Path(buyer, seller)
	if !ok {
		return nil, fmt.Errorf("hierarchy: no chain of trusted intermediaries connects %s and %s", buyer, seller)
	}

	p := &model.Problem{Name: fmt.Sprintf("hierarchy-%s-%s", buyer, seller)}
	p.Parties = append(p.Parties,
		model.Party{ID: buyer, Role: model.RoleConsumer},
		model.Party{ID: seller, Role: model.RoleProducer},
	)
	// Path intermediaries become zero-margin brokers.
	brokerID := func(u IntermediaryID) model.PartyID {
		return model.PartyID("via-" + string(u))
	}
	for _, u := range path {
		p.Parties = append(p.Parties, model.Party{ID: brokerID(u), Role: model.RoleBroker})
	}

	// The resale chain: buyer — u1 — u2 — ... — uk — seller. Each hop
	// gets a virtual trusted component; the hop's trustee plays it.
	chain := []model.PartyID{buyer}
	for _, u := range path {
		chain = append(chain, brokerID(u))
	}
	chain = append(chain, seller)

	for i := 0; i+1 < len(chain); i++ {
		vt := model.PartyID(fmt.Sprintf("esc%d", i))
		p.Parties = append(p.Parties, model.Party{ID: vt, Role: model.RoleTrusted})
		p.Exchanges = append(p.Exchanges,
			model.Exchange{Principal: chain[i], Trusted: vt, Gives: model.Cash(price), Gets: model.Goods(item)},
			model.Exchange{Principal: chain[i+1], Trusted: vt, Gives: model.Goods(item), Gets: model.Cash(price)},
		)

		// Who plays the virtual trusted? For the end hops, the principal
		// trusts the adjacent path intermediary, which therefore plays
		// the role. For middle hops, the hierarchy's trustee plays it.
		var persona model.PartyID
		var truster model.PartyID
		switch {
		case i == 0:
			persona, truster = brokerID(path[0]), buyer
		case i == len(chain)-2:
			persona, truster = brokerID(path[len(path)-1]), seller
		default:
			who, ok := t.linked(path[i-1], path[i])
			if !ok {
				return nil, fmt.Errorf("hierarchy: internal: unlinked hop %s–%s", path[i-1], path[i])
			}
			persona = brokerID(who)
			if persona == chain[i] {
				truster = chain[i+1]
			} else {
				truster = chain[i]
			}
		}
		p.DirectTrust = append(p.DirectTrust, model.TrustDecl{Truster: truster, Trustee: persona})
	}

	c, err := model.Compile(p)
	if err != nil {
		return nil, fmt.Errorf("hierarchy: built invalid problem: %w", err)
	}
	return c, nil
}
