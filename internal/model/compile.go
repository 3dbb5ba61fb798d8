package model

// Compile builds the problem's action table if absent: the one index
// every derived view of the problem reads — the party accessors
// (ExchangesOf, PrincipalsAt, PersonaOf, ConjunctionGroups, the red
// rules), the interaction graph, and the engines' executions. It is
// idempotent and must be called from a single goroutine before the
// problem is shared across workers (Validate and safety.NewExec do).
//
// The table is dropped by Validate (which every engine entry point
// calls), so a problem mutated between analyses is recompiled before the
// next one. Builders that mutate a problem must not interleave mutation
// with the accessors mid-analysis; within the repo every mutation path
// goes through Clone (which never carries the table) or precedes
// Validate.
func (p *Problem) Compile() {
	if p.table == nil {
		p.table = buildActionTable(p)
	}
}

// ActionTable returns the problem's action table, compiling the problem
// first if it is not already. Like Compile, the first call must happen
// before the problem is shared across goroutines (safety.NewExec makes
// it).
func (p *Problem) ActionTable() *ActionTable {
	p.Compile()
	return p.table
}

// readTable returns the table for a caller that must not mutate the
// problem: the compiled table, or a private one built for this call and
// never published, so a caller that mutates an uncompiled problem and
// asks again gets a fresh answer.
func (p *Problem) readTable() *ActionTable {
	if t := p.table; t != nil {
		return t
	}
	return buildActionTable(p)
}
