package model

import (
	"fmt"
	"slices"
	"sort"
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

	partyIndex map[PartyID]int // built by Validate / Index
	table      *ActionTable    // the compiled index; see Compile
}

// Party returns the party record for the ID.
func (p *Problem) Party(id PartyID) (Party, bool) {
	p.buildIndex()
	i, ok := p.partyIndex[id]
	if !ok {
		return Party{}, false
	}
	return p.Parties[i], true
}

func (p *Problem) buildIndex() {
	if p.partyIndex != nil && len(p.partyIndex) == len(p.Parties) {
		return
	}
	p.partyIndex = make(map[PartyID]int, len(p.Parties))
	for i, pa := range p.Parties {
		p.partyIndex[pa.ID] = i
	}
}

// The party accessors below read the problem's action table: its Own
// and At rows, its personas and its split flags. On an uncompiled
// problem they read a private table built for the call, so each call
// costs O(exchanges); compile a problem that is asked repeatedly. They
// answer for the problem's own parties, and for an unknown ID as for a
// party with no exchanges.

// ExchangesOf returns the indices of the exchanges in which the party
// participates (as principal or as trusted component), ascending.
func (p *Problem) ExchangesOf(id PartyID) []int {
	t := p.readTable()
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

// PrincipalsAt returns the distinct principals adjacent to a trusted
// component, in first-appearance order.
func (p *Problem) PrincipalsAt(trusted PartyID) []PartyID {
	t := p.readTable()
	k, ok := t.parties[trusted]
	if !ok {
		return nil
	}
	var out []PartyID
	for _, q := range t.principalsAt(nil, k, make([]int32, len(p.Parties))) {
		out = append(out, p.Parties[q].ID)
	}
	return out
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
func (p *Problem) PersonaOf(t PartyID) (persona PartyID, ok bool) {
	tab := p.readTable()
	k, ok := tab.parties[t]
	if !ok || tab.Persona[k] < 0 {
		return "", false
	}
	return p.Parties[tab.Persona[k]].ID, true
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

// RedExchanges returns, per principal, the set of that principal's
// exchange indices whose commitment must be secured before the
// principal's other commitments — the red edges of Section 4.1. Three
// rules produce red markings:
//
//  1. Resale: the principal gives an item on exchange e that it only
//     obtains via another exchange — the *sale* e is red ("a broker will
//     commit to obtain a document only if it has a committed buyer").
//  2. Poor principal (Section 5's poor broker): a LimitedFunds principal
//     whose endowment cannot cover its total outgoing payments must
//     secure its incoming payments first, so its paying exchanges are
//     red too.
//  3. Explicit RedOverride on the exchange.
//
// Exchanges of a principal with a single exchange are never red (there is
// no conjunction node to attach the edge to).
func (p *Problem) RedExchanges() map[PartyID]map[int]bool {
	t := p.readTable()
	out := make(map[PartyID]map[int]bool)
	for k, pa := range p.Parties {
		if set := p.redOf(t, k); set != nil {
			out[pa.ID] = set
		}
	}
	return out
}

// RedExchangesOf returns one principal's red exchange set — the
// per-principal slice of RedExchanges, recomputed in isolation. The
// rules only read the principal's own exchanges and party record, which
// is what makes the incremental patcher's frontier local: an edit dirties
// exactly the touched principals' sets.
func (p *Problem) RedExchangesOf(principal PartyID) map[int]bool {
	t := p.readTable()
	k, ok := t.parties[principal]
	if !ok {
		return nil
	}
	return p.redOf(t, k)
}

// redOf applies the three red rules to the own exchanges of the party in
// slot k. It returns nil when nothing is red (including the
// single-exchange guard: with one exchange there is no conjunction to
// attach red to).
func (p *Problem) redOf(t *ActionTable, k int) map[int]bool {
	idxs := t.Own(k)
	if len(idxs) == 0 || t.Degree(k) < 2 {
		return nil
	}
	var out map[int]bool
	mark := func(idx int32) {
		if out == nil {
			out = make(map[int]bool)
		}
		out[int(idx)] = true
	}

	// Rule 3: explicit override.
	for _, i := range idxs {
		if p.Exchanges[i].RedOverride {
			mark(i)
		}
	}

	// Rule 1: resale — items given on one exchange but acquired on
	// another.
	acquired := make(map[ItemID]bool)
	for _, i := range idxs {
		for _, it := range p.Exchanges[i].Gets.Items {
			acquired[it] = true
		}
	}
	for _, i := range idxs {
		for _, it := range p.Exchanges[i].Gives.Items {
			if acquired[it] {
				mark(i)
			}
		}
	}

	// Rule 2: poor principal.
	pa := p.Parties[k]
	if !pa.LimitedFunds {
		return out
	}
	var outgoing Money
	for _, i := range idxs {
		outgoing += p.Exchanges[i].Gives.Amount
	}
	if pa.Endowment < outgoing {
		for _, i := range idxs {
			if p.Exchanges[i].Gives.Amount > 0 {
				mark(i)
			}
		}
	}
	return out
}

// ConjunctionGroups partitions a principal's exchange indices into
// all-or-nothing groups. By default every exchange of the principal is in
// one group (the Section 4.1 type-2 conjunction). Each accepted indemnity
// covering one of the principal's exchanges splits that exchange into its
// own group (Section 6: "an indemnity allows a conjunction node to be
// split"). Groups are ordered by first member; the unsplit group is the
// table's Rest row.
func (p *Problem) ConjunctionGroups(principal PartyID) [][]int {
	t := p.readTable()
	k, ok := t.parties[principal]
	if !ok {
		return nil
	}
	var groups [][]int
	var rest []int
	for _, ei := range t.Own(k) {
		if t.split[ei] {
			groups = append(groups, []int{int(ei)})
		} else {
			rest = append(rest, int(ei))
		}
	}
	if len(rest) > 0 {
		groups = append(groups, rest)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
	return groups
}

// Clone returns a deep copy of the problem, safe to mutate independently
// (used by the indemnity search and the generators).
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

// Validate checks the structural invariants the rest of the system relies
// on:
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
func (p *Problem) Validate() error {
	p.partyIndex = nil
	p.table = nil // mutations since the last Validate invalidate the compiled table
	p.buildIndex()
	if len(p.Parties) != len(p.partyIndex) {
		return fmt.Errorf("model: problem %q has duplicate party IDs", p.Name)
	}
	for _, pa := range p.Parties {
		if err := pa.Validate(); err != nil {
			return err
		}
		if pa.LimitedFunds && pa.Endowment < 0 {
			return fmt.Errorf("model: party %s has negative endowment", pa.ID)
		}
	}

	for i, e := range p.Exchanges {
		pr, ok := p.Party(e.Principal)
		if !ok {
			return fmt.Errorf("model: exchange %d references unknown principal %s", i, e.Principal)
		}
		if !pr.Role.IsPrincipal() {
			return fmt.Errorf("model: exchange %d: %s is not a principal", i, e.Principal)
		}
		tr, ok := p.Party(e.Trusted)
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

	if err := p.validateConservation(); err != nil {
		return err
	}

	for _, d := range p.DirectTrust {
		for _, id := range []PartyID{d.Truster, d.Trustee} {
			pa, ok := p.Party(id)
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

	for _, off := range p.Indemnities {
		if err := p.validateIndemnity(off); err != nil {
			return err
		}
	}
	// A validated problem is about to be analysed; build the table
	// here, while the problem is still owned by a single goroutine.
	p.Compile()
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

func (p *Problem) validateIndemnity(off IndemnityOffer) error {
	if off.Covers < 0 || off.Covers >= len(p.Exchanges) {
		return fmt.Errorf("model: indemnity covers unknown exchange %d", off.Covers)
	}
	if _, ok := p.Party(off.By); !ok {
		return fmt.Errorf("model: indemnity offered by unknown party %s", off.By)
	}
	via, ok := p.Party(off.Via)
	if !ok || !via.IsTrusted() {
		return fmt.Errorf("model: indemnity collateral holder %s is not a trusted component", off.Via)
	}
	if off.Amount < 0 {
		return fmt.Errorf("model: negative indemnity amount %v", off.Amount)
	}
	protected := p.Exchanges[off.Covers].Principal
	adj := func(principal PartyID) bool {
		for _, e := range p.Exchanges {
			if e.Trusted == off.Via && e.Principal == principal {
				return true
			}
		}
		return false
	}
	if !adj(protected) {
		return fmt.Errorf("model: indemnity holder %s is not shared with protected principal %s", off.Via, protected)
	}
	// "The principal providing the indemnity must share a trusted
	// intermediary with the one requesting the indemnification" (§6).
	if off.By != protected && !adj(off.By) {
		return fmt.Errorf("model: indemnity offerer %s does not use trusted component %s", off.By, off.Via)
	}
	return nil
}
