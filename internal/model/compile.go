package model

import (
	"crypto/sha256"
	"sync"
)

// Compiled is a validated problem with its action table: the immutable
// value every engine takes. Compile builds it from a private deep copy
// of the builder, so no later edit of the builder reaches it. The
// embedded Problem reads as the builder did (c.Exchanges, c.Parties);
// nothing writes it after Compile. To edit, take a builder with Clone,
// edit it and compile again.
type Compiled struct {
	Problem

	table      *ActionTable
	digestOnce sync.Once
	digest     [sha256.Size]byte
}

// Compile validates a deep copy of p and builds its action table once.
// The checks are the structural invariants the engines rely on:
//
//   - parties well formed, IDs unique;
//   - every exchange connects a principal to a trusted component
//     (bipartite interaction graph) and moves something;
//   - conservation at each trusted component: the multiset of assets
//     deposited by its principals equals the multiset they collectively
//     receive (the trusted is a conduit, Section 2.5);
//   - direct-trust declarations and indemnity offers reference known
//     parties/exchanges, and indemnity collateral is held by a trusted
//     component adjacent to both the offerer and the protected principal.
func Compile(p *Problem) (*Compiled, error) {
	c := &Compiled{Problem: *p.Clone()}
	// The table is built first: validation reads its party index.
	c.table = buildActionTable(&c.Problem)
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustCompile is Compile for a problem known to be valid, such as a
// fixture; it panics on an invalid one.
func MustCompile(p *Problem) *Compiled {
	c, err := Compile(p)
	if err != nil {
		panic(err)
	}
	return c
}

// ActionTable returns the compiled action table.
func (c *Compiled) ActionTable() *ActionTable { return c.table }

// Digest returns the problem's content address, Digest of its canonical
// encoding, computed on first use.
func (c *Compiled) Digest() [sha256.Size]byte {
	c.digestOnce.Do(func() { c.digest = Digest(&c.Problem) })
	return c.digest
}
