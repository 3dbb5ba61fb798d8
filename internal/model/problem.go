package model

import (
	"fmt"
	"slices"
)

// Exchange is one pairwise commitment between a principal and a trusted
// component — one edge of the interaction graph, and (after graph
// derivation) one commitment node of the sequencing graph.
//
// Gives is what the principal deposits with the trusted component; Gets
// is what the principal receives when the trusted completes the exchange.
type Exchange struct {
	Principal PartyID
	Trusted   PartyID
	Gives     Bundle
	Gets      Bundle

	// RedOverride forces the commitment to be "secured first" at the
	// principal's conjunction node (a red edge) regardless of the derived
	// rules. The DSL's `red` statement sets it.
	RedOverride bool
}

// Clone returns a deep copy.
func (e Exchange) Clone() Exchange {
	out := e
	out.Gives = e.Gives.Clone()
	out.Gets = e.Gets.Clone()
	return out
}

// String renders the exchange in DSL-flavoured form.
func (e Exchange) String() string {
	return fmt.Sprintf("%s via %s: gives %s, gets %s", e.Principal, e.Trusted, e.Gives, e.Gets)
}

// TrustDecl declares that Truster directly trusts Trustee (Section
// 4.2.3). Trust is asymmetric: the declaration says nothing about the
// reverse direction. Its graph effect: a trusted component standing
// between the two principals is a persona of the Trustee.
type TrustDecl struct {
	Truster PartyID
	Trustee PartyID
}

// IndemnityOffer posts collateral to split one commitment out of the
// protected principal's conjunction (Section 6). By deposits Amount with
// Via; if the covered exchange later fails while the rest of the
// conjunction completed, the collateral is forfeited to the protected
// principal; otherwise it is refunded.
type IndemnityOffer struct {
	By     PartyID
	Covers int     // index into Problem.Exchanges
	Via    PartyID // trusted component holding the collateral
	Amount Money   // 0 ⇒ compute the required minimum
}

// Constraint is an explicit ordering requirement (Section 2.4): Before
// must precede After. The paper writes After → Before with the arrow at
// the earlier action.
type Constraint struct {
	Before Action
	After  Action
}

// String renders the constraint in the paper's arrow notation.
func (c Constraint) String() string {
	return fmt.Sprintf("%v → %v", c.After, c.Before)
}

// Problem is a full commercial-exchange specification: the input to
// interaction-graph and sequencing-graph construction, protocol
// synthesis, and the simulator.
type Problem struct {
	Name        string
	Parties     []Party
	Exchanges   []Exchange
	DirectTrust []TrustDecl
	Indemnities []IndemnityOffer
	Constraints []Constraint
}

// Party returns the party record for the ID.
func (c *Compiled) Party(id PartyID) (Party, bool) {
	k, ok := c.table.parties[id]
	if !ok {
		return Party{}, false
	}
	return c.Parties[k], true
}

// The party accessors below read the compiled action table: its Own
// and At rows and its personas. They answer for the
// problem's own parties, and for an unknown ID as for a party with no
// exchanges.

// ExchangesOf returns the indices of the exchanges in which the party
// participates (as principal or as trusted component), ascending.
func (c *Compiled) ExchangesOf(id PartyID) []int {
	t := c.table
	k, ok := t.parties[id]
	if !ok {
		return nil
	}
	var out []int
	for _, row := range [2][]int32{t.Own(k), t.At(k)} {
		for _, ei := range row {
			out = append(out, int(ei))
		}
	}
	slices.Sort(out)
	return slices.Compact(out) // an exchange with the party on both sides
}

// Trusts reports whether truster directly trusts trustee per the
// problem's declarations.
func (p *Problem) Trusts(truster, trustee PartyID) bool {
	for _, d := range p.DirectTrust {
		if d.Truster == truster && d.Trustee == trustee {
			return true
		}
	}
	return false
}

// PersonaOf reports which principal, if any, plays the role of the
// trusted component t: a principal q adjacent to t such that every other
// principal adjacent to t directly trusts q (Section 4.2.3). When no
// such principal exists, ok is false and t is a genuinely independent
// trusted agent.
func (c *Compiled) PersonaOf(t PartyID) (persona PartyID, ok bool) {
	k, ok := c.table.parties[t]
	if !ok || c.table.Persona[k] < 0 {
		return "", false
	}
	return c.Parties[c.table.Persona[k]].ID, true
}

// personaFrom applies the persona rule to a trusted component's adjacent
// principals: the principal every other adjacent principal directly
// trusts plays the component itself (Section 4.2.3).
func personaFrom(p *Problem, principals []PartyID) (PartyID, bool) {
	for _, q := range principals {
		all := true
		for _, other := range principals {
			if other == q {
				continue
			}
			if !p.Trusts(other, q) {
				all = false
				break
			}
		}
		if all && len(principals) > 1 {
			return q, true
		}
	}
	return "", false
}

// Clone returns a deep copy of the problem, safe to mutate
// independently. On a compiled problem it is the way to edit: Clone,
// edit the copy, Compile it.
func (p *Problem) Clone() *Problem {
	out := &Problem{Name: p.Name}
	out.Parties = append([]Party(nil), p.Parties...)
	out.Exchanges = make([]Exchange, len(p.Exchanges))
	for i, e := range p.Exchanges {
		out.Exchanges[i] = e.Clone()
	}
	out.DirectTrust = append([]TrustDecl(nil), p.DirectTrust...)
	out.Indemnities = append([]IndemnityOffer(nil), p.Indemnities...)
	out.Constraints = append([]Constraint(nil), p.Constraints...)
	return out
}

// validate checks the structural invariants Compile documents, reading
// the party index of the table Compile built.
func (c *Compiled) validate() error {
	if len(c.Parties) != len(c.table.parties) {
		return fmt.Errorf("model: problem %q has duplicate party IDs", c.Name)
	}
	for _, pa := range c.Parties {
		if err := pa.Validate(); err != nil {
			return err
		}
		if pa.LimitedFunds && pa.Endowment < 0 {
			return fmt.Errorf("model: party %s has negative endowment", pa.ID)
		}
	}

	for i, e := range c.Exchanges {
		pr, ok := c.Party(e.Principal)
		if !ok {
			return fmt.Errorf("model: exchange %d references unknown principal %s", i, e.Principal)
		}
		if !pr.Role.IsPrincipal() {
			return fmt.Errorf("model: exchange %d: %s is not a principal", i, e.Principal)
		}
		tr, ok := c.Party(e.Trusted)
		if !ok {
			return fmt.Errorf("model: exchange %d references unknown trusted component %s", i, e.Trusted)
		}
		if !tr.IsTrusted() {
			return fmt.Errorf("model: exchange %d: %s is not a trusted component", i, e.Trusted)
		}
		if e.Gives.IsEmpty() && e.Gets.IsEmpty() {
			return fmt.Errorf("model: exchange %d between %s and %s moves nothing", i, e.Principal, e.Trusted)
		}
		if e.Gives.Amount < 0 || e.Gets.Amount < 0 {
			return fmt.Errorf("model: exchange %d has negative money", i)
		}
	}

	if err := c.validateConservation(); err != nil {
		return err
	}

	for _, d := range c.DirectTrust {
		for _, id := range []PartyID{d.Truster, d.Trustee} {
			pa, ok := c.Party(id)
			if !ok {
				return fmt.Errorf("model: trust declaration references unknown party %s", id)
			}
			if !pa.Role.IsPrincipal() {
				return fmt.Errorf("model: trust declaration references non-principal %s", id)
			}
		}
		if d.Truster == d.Trustee {
			return fmt.Errorf("model: party %s declared to trust itself", d.Truster)
		}
	}

	if len(c.Indemnities) > 0 {
		// adj holds every (trusted component, principal) pair some
		// exchange connects, so each offer's checks are two probes.
		adj := make(map[[2]PartyID]bool, len(c.Exchanges))
		for _, e := range c.Exchanges {
			adj[[2]PartyID{e.Trusted, e.Principal}] = true
		}
		for _, off := range c.Indemnities {
			if err := c.validateIndemnity(off, adj); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Problem) validateConservation() error {
	// Accumulate per-trusted flows in one pass over the exchanges; a
	// per-party rescan would be quadratic in the population size.
	type flow struct{ in, out *Holding }
	flows := make(map[PartyID]flow)
	for _, e := range p.Exchanges {
		f, ok := flows[e.Trusted]
		if !ok {
			f = flow{in: NewHolding(), out: NewHolding()}
			flows[e.Trusted] = f
		}
		f.in.Add(e.Gives)
		f.out.Add(e.Gets)
	}
	for _, pa := range p.Parties {
		if !pa.IsTrusted() {
			continue
		}
		f, ok := flows[pa.ID]
		if !ok {
			continue
		}
		in, out := f.in, f.out
		if in.Cash != out.Cash {
			return fmt.Errorf("model: trusted %s receives %v but must deliver %v", pa.ID, in.Cash, out.Cash)
		}
		for it, n := range out.Items {
			if in.Items[it] != n {
				return fmt.Errorf("model: trusted %s must deliver item %s ×%d but receives ×%d",
					pa.ID, it, n, in.Items[it])
			}
		}
		for it, n := range in.Items {
			if out.Items[it] != n {
				return fmt.Errorf("model: trusted %s receives item %s ×%d but only delivers ×%d",
					pa.ID, it, n, out.Items[it])
			}
		}
	}
	return nil
}

func (c *Compiled) validateIndemnity(off IndemnityOffer, adj map[[2]PartyID]bool) error {
	if off.Covers < 0 || off.Covers >= len(c.Exchanges) {
		return fmt.Errorf("model: indemnity covers unknown exchange %d", off.Covers)
	}
	if _, ok := c.Party(off.By); !ok {
		return fmt.Errorf("model: indemnity offered by unknown party %s", off.By)
	}
	via, ok := c.Party(off.Via)
	if !ok || !via.IsTrusted() {
		return fmt.Errorf("model: indemnity collateral holder %s is not a trusted component", off.Via)
	}
	if off.Amount < 0 {
		return fmt.Errorf("model: negative indemnity amount %v", off.Amount)
	}
	protected := c.Exchanges[off.Covers].Principal
	if !adj[[2]PartyID{off.Via, protected}] {
		return fmt.Errorf("model: indemnity holder %s is not shared with protected principal %s", off.Via, protected)
	}
	// "The principal providing the indemnity must share a trusted
	// intermediary with the one requesting the indemnification" (§6).
	if off.By != protected && !adj[[2]PartyID{off.Via, off.By}] {
		return fmt.Errorf("model: indemnity offerer %s does not use trusted component %s", off.By, off.Via)
	}
	return nil
}
