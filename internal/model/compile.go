package model

// Compile validates the problem unless it is already compiled. On a
// compiled problem it writes nothing; every engine entry point calls it.
func (p *Problem) Compile() error {
	if p.compiled() {
		return nil
	}
	return p.Validate()
}

// compiled reports whether the problem has a table, and one built at
// its current shape: a table built before an append is stale.
func (p *Problem) compiled() bool { return p.table != nil && p.table.shape == shapeOf(p) }

// ActionTable returns the problem's published action table. The first
// call on a problem that is not compiled validates it, and so fixes its
// table; an invalid problem gets the private table validation built,
// and nothing is published.
func (p *Problem) ActionTable() *ActionTable {
	if !p.compiled() {
		t, _ := p.validate()
		return t
	}
	return p.table
}
