package model

import "sync/atomic"

// compiledProblem is the dense, read-only view of a Problem that the
// state-space engines run against. Every table is derived mechanically
// from the specification fields, so the cache changes no verdict — it
// only removes the per-call slice/map building that used to dominate the
// allocation profile of the exhaustive searches (DepositActions,
// ExchangesOf and PrincipalsAt alone accounted for ~75% of a sweep's
// allocations).
//
// The cache is built by Compile and dropped by Validate (which every
// engine entry point calls), so a problem mutated between analyses is
// recompiled before the next one. Builders that mutate a problem must
// not interleave mutation with cached accessors mid-analysis; within the
// repo every mutation path goes through Clone (which never carries the
// cache) or precedes Validate.
type compiledProblem struct {
	deposits [][]Action // per exchange: DepositActions(e)
	receipts [][]Action // per exchange: ReceiptActions(e)

	exchangesOf  map[PartyID][]int     // party -> exchange indices (either role)
	principalsAt map[PartyID][]PartyID // trusted -> adjacent principals
	persona      map[PartyID]PartyID   // trusted -> persona principal, when one exists
	conjGroups   map[PartyID][][]int   // principal -> ConjunctionGroups

	// table is the ActionTable, built on first use (see ActionTable).
	table atomic.Pointer[ActionTable]
}

// Compile builds the problem's dense derived tables if absent. It is
// idempotent and must be called from a single goroutine before the
// problem is shared across workers (Validate and safety.NewExec do).
func (p *Problem) Compile() {
	if p.comp == nil {
		p.comp = compile(p)
	}
}

// compile derives the tables without publishing them: every derivation
// runs against the uncompiled accessors.
func compile(p *Problem) *compiledProblem {
	c := &compiledProblem{
		deposits:     make([][]Action, len(p.Exchanges)),
		receipts:     make([][]Action, len(p.Exchanges)),
		exchangesOf:  make(map[PartyID][]int, len(p.Parties)),
		principalsAt: make(map[PartyID][]PartyID),
		persona:      make(map[PartyID]PartyID),
		conjGroups:   make(map[PartyID][][]int, len(p.Parties)),
	}
	for i, e := range p.Exchanges {
		c.deposits[i] = DepositActions(e)
		c.receipts[i] = ReceiptActions(e)
	}
	// One pass over the exchanges builds every adjacency table; the
	// per-party accessors would cost O(exchanges) each and make
	// compilation quadratic in the population size.
	ownExchanges := make(map[PartyID][]int, len(p.Parties))
	trusteds := make(map[PartyID]bool)
	atSeen := make(map[PartyID]map[PartyID]bool)
	for i, e := range p.Exchanges {
		trusteds[e.Trusted] = true
		ownExchanges[e.Principal] = append(ownExchanges[e.Principal], i)
		c.exchangesOf[e.Principal] = append(c.exchangesOf[e.Principal], i)
		if e.Trusted != e.Principal {
			c.exchangesOf[e.Trusted] = append(c.exchangesOf[e.Trusted], i)
		}
		seen := atSeen[e.Trusted]
		if seen == nil {
			seen = make(map[PartyID]bool, 2)
			atSeen[e.Trusted] = seen
		}
		if !seen[e.Principal] {
			seen[e.Principal] = true
			c.principalsAt[e.Trusted] = append(c.principalsAt[e.Trusted], e.Principal)
		}
	}
	for t := range trusteds {
		if q, ok := personaFrom(p, c.principalsAt[t]); ok {
			c.persona[t] = q
		}
	}
	// Conjunction groups, likewise in one pass: the split set per
	// principal from the indemnities, then the group partition from the
	// own exchange lists.
	splitOf := make(map[PartyID]map[int]bool)
	for _, off := range p.Indemnities {
		if off.Covers >= 0 && off.Covers < len(p.Exchanges) {
			pr := p.Exchanges[off.Covers].Principal
			if splitOf[pr] == nil {
				splitOf[pr] = make(map[int]bool, 1)
			}
			splitOf[pr][off.Covers] = true
		}
	}
	for id, own := range ownExchanges {
		c.conjGroups[id] = groupsFrom(own, splitOf[id])
	}
	return c
}
