package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// DepositActions decomposes the principal's side of an exchange into the
// primitive actions that place its assets with the trusted component:
// one pay action for the money component and one give per item.
func DepositActions(e Exchange) []Action {
	return transferActions(e.Principal, e.Trusted, e.Gives)
}

// ReceiptActions decomposes what the trusted component delivers to the
// principal when the exchange completes.
func ReceiptActions(e Exchange) []Action {
	return transferActions(e.Trusted, e.Principal, e.Gets)
}

// transferActions returns the pay action (if any), then one give per
// item in item order, sorted in place in the one slice it allocates.
func transferActions(from, to PartyID, b Bundle) []Action {
	n := len(b.Items)
	if b.Amount > 0 {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Action, 0, n)
	if b.Amount > 0 {
		out = append(out, Pay(from, to, b.Amount))
	}
	gives := len(out)
	for _, it := range b.Items {
		out = append(out, Give(from, to, it))
	}
	slices.SortFunc(out[gives:], func(x, y Action) int { return cmp.Compare(x.Item, y.Item) })
	return out
}

// maxEnumExchanges bounds the descriptor enumeration: refund descriptors
// cover every subset of a principal's exchanges, which is exponential.
// Beyond this bound AutoSpec omits the partial-refund descriptors; the
// semantic predicate (Acceptable) remains exact at any size.
const maxEnumExchanges = 6

// AutoSpec generates the paper-style acceptable-state specification for a
// principal, mirroring the enumerations of Section 3.1:
//
//   - the status quo {};
//   - the completed exchange (all deposits made, all receipts obtained),
//     which is also the preferred outcome;
//   - the windfall (all receipts without any deposit);
//   - for each subset of the principal's exchanges: deposits made and
//     compensated (refunds), with the other exchanges untouched.
//
// Conjunction groups from indemnity splits are respected: completion is
// required per group rather than globally.
func AutoSpec(p *Problem, principal PartyID) Spec {
	groups := p.ConjunctionGroups(principal)
	var mine []int
	for _, g := range groups {
		mine = append(mine, g...)
	}
	sort.Ints(mine)

	var deposits, receipts []Action
	for _, i := range mine {
		deposits = append(deposits, DepositActions(p.Exchanges[i])...)
		receipts = append(receipts, ReceiptActions(p.Exchanges[i])...)
	}

	spec := Spec{Party: principal}
	add := func(name string, actions []Action) int {
		spec.Descriptors = append(spec.Descriptors, Descriptor{Name: name, Actions: actions})
		return len(spec.Descriptors) - 1
	}

	add("status quo", nil)
	completed := add("exchange completed", concatActions(deposits, receipts))
	spec.Preferred = completed
	if len(deposits) > 0 {
		add("windfall", append([]Action(nil), receipts...))
	}

	// Per-group mixed outcomes: each group independently completed,
	// refunded, or untouched. Enumerate only for small problems.
	if len(mine) <= maxEnumExchanges && len(groups) >= 1 {
		enumerateGroupOutcomes(p, principal, groups, &spec)
	}
	return spec
}

// enumerateGroupOutcomes appends descriptors for every combination of
// per-exchange outcomes (completed / refunded / untouched) that respects
// the conjunction groups: within a group, either every exchange completes
// or none does (refunds and untouched exchanges may mix freely — the
// paper's broker accepts getting the document back on one side while the
// other side never started). The all-untouched and all-completed
// combinations are skipped: the caller already added them.
func enumerateGroupOutcomes(p *Problem, principal PartyID, groups [][]int, spec *Spec) {
	type outcome int
	const (
		untouched outcome = iota
		refunded
		completedOut
	)
	var order []int
	groupOf := make(map[int]int)
	for gi, g := range groups {
		for _, ei := range g {
			groupOf[ei] = gi
			order = append(order, ei)
		}
	}
	sort.Ints(order)
	choices := make(map[int]outcome, len(order))

	emit := func() {
		allUntouched, allCompleted := true, true
		for _, ei := range order {
			if choices[ei] != untouched {
				allUntouched = false
			}
			if choices[ei] != completedOut {
				allCompleted = false
			}
		}
		if allUntouched || allCompleted {
			return
		}
		// Group constraint: completion is all-or-nothing per group.
		for _, g := range groups {
			completedCount := 0
			for _, ei := range g {
				if choices[ei] == completedOut {
					completedCount++
				}
			}
			if completedCount != 0 && completedCount != len(g) {
				return
			}
		}
		var acts []Action
		name := ""
		for _, ei := range order {
			switch choices[ei] {
			case untouched:
			case refunded:
				name += fmt.Sprintf("[e%d refunded]", ei)
				for _, d := range DepositActions(p.Exchanges[ei]) {
					acts = append(acts, d, d.Compensation())
				}
			case completedOut:
				name += fmt.Sprintf("[e%d completed]", ei)
				acts = append(acts, DepositActions(p.Exchanges[ei])...)
				acts = append(acts, ReceiptActions(p.Exchanges[ei])...)
			}
		}
		spec.Descriptors = append(spec.Descriptors, Descriptor{Name: name, Actions: acts})
	}

	var rec func(i int)
	rec = func(i int) {
		if i == len(order) {
			emit()
			return
		}
		for _, o := range []outcome{untouched, refunded, completedOut} {
			choices[order[i]] = o
			rec(i + 1)
		}
	}
	rec(0)
	_ = principal
}

// GuaranteeHolds checks a trusted component's guarantee (Section 2.5):
// unlike principal acceptability, a guarantee lists the exact states that
// may result, so the final state restricted to actions involving the
// component must equal one of the descriptors.
func GuaranteeHolds(sp Spec, s State) bool {
	var involved []Action
	for _, a := range s.Actions() {
		if a.Involves(sp.Party) {
			involved = append(involved, a)
		}
	}
	restricted := NewState(involved...)
	for _, d := range sp.Descriptors {
		if restricted.Equal(NewState(d.Actions...)) {
			return true
		}
	}
	return false
}

func concatActions(slices ...[]Action) []Action {
	var out []Action
	for _, s := range slices {
		out = append(out, s...)
	}
	return out
}

// Acceptable is the exact semantic acceptability predicate for a
// principal. Two rules:
//
//  1. Conjunction rule: for every conjunction group, either the
//     principal has nothing irrevocably at risk in that group (status
//     quo, refunds and windfalls all qualify), or the group completed —
//     the principal received everything the group's exchanges promise.
//  2. Indemnity rule (Section 6): when an indemnity split let the
//     principal commit to the *other* pieces separately, a failed covered
//     exchange must be compensated by the collateral payout — the paper's
//     "enough money from Broker #1's penalty to offset the cost of
//     document #2". Concretely: if the covered exchange's receipts are
//     missing while a sibling exchange holds an uncompensated deposit,
//     the payout must have been received.
//
// It agrees with the Section 3.1 descriptor enumeration on the paper's
// examples (property-tested in spec_test.go) and stays exact for problems
// too large to enumerate.
func Acceptable(p *Problem, principal PartyID, s State) bool {
	return acceptableState(p, principal, s, false)
}

// AcceptableAssets is the per-exchange weakening of Acceptable: each
// exchange is judged on its own (deposit compensated, or that exchange's
// Gets received), ignoring conjunction groups; the indemnity rules still
// apply. This is the paper's hard runtime guarantee — "no participant
// ever risks losing money or goods without receiving everything promised
// in exchange" (Section 1): asset integrity holds per pairwise exchange
// at every step, while conjunction preferences are a negotiation-level
// constraint enforced by the commit order and the final state.
func AcceptableAssets(p *Problem, principal PartyID, s State) bool {
	return acceptableState(p, principal, s, true)
}

// acceptableState evaluates the rules, which ActionTable.Acceptable
// implements once over action slots, for a State read through the table.
// Only the problem's own actions count; a party unknown to the problem
// has nothing at risk.
func acceptableState(p *Problem, principal PartyID, s State, assets bool) bool {
	t := p.readTable()
	party, ok := t.PartySlot(principal)
	if !ok {
		return true
	}
	return t.Acceptable(party, stateView{s, t}, assets)
}

// SelfInsured reports whether the indemnity offerer is the seller-side
// counterpart for the covered goods: the offerer has an exchange at the
// collateral holder whose Gives include every item the covered exchange
// promises. Such an offerer controls delivery and can always earn the
// collateral back; a third-party offerer (allowed by Section 6) accepts
// forfeiture risk it does not control.
func SelfInsured(p *Problem, off IndemnityOffer) bool {
	if off.Covers < 0 || off.Covers >= len(p.Exchanges) {
		return false
	}
	cov := p.Exchanges[off.Covers]
	gives := make(map[ItemID]bool)
	for _, e := range p.Exchanges {
		if e.Principal != off.By || e.Trusted != off.Via {
			continue
		}
		for _, it := range e.Gives.Items {
			gives[it] = true
		}
	}
	if len(cov.Gets.Items) == 0 {
		return false
	}
	for _, it := range cov.Gets.Items {
		if !gives[it] {
			return false
		}
	}
	return true
}

// RequiredIndemnity computes the minimum collateral for an indemnity
// covering the exchange: the total the protected principal puts at
// jeopardy by completing its *other* conjoined exchanges without this one
// — the sum of the prices of all other pieces (Section 6, Figure 7).
func RequiredIndemnity(p *Problem, covers int) Money {
	if covers < 0 || covers >= len(p.Exchanges) {
		return 0
	}
	principal := p.Exchanges[covers].Principal
	var total Money
	for i, e := range p.Exchanges {
		if e.Principal == principal && i != covers {
			total += e.Gives.Amount
		}
	}
	return total
}

// TrustedSpec generates the guarantee specification for a trusted
// component (Section 2.5): nothing happens; the exchange works (both
// deposits arrive, notifications issued, both deliveries made); or each
// one-sided prefix is compensated when the notification expires.
//
// The descriptors only cover degree-2 trusted components, the case the
// paper develops; larger components are checked semantically via
// TrustedNeutral.
func TrustedSpec(p *Problem, trusted PartyID) (Spec, error) {
	var edges []int
	for i, e := range p.Exchanges {
		if e.Trusted == trusted {
			edges = append(edges, i)
		}
	}
	spec := Spec{Party: trusted}
	spec.Descriptors = append(spec.Descriptors, Descriptor{Name: "status quo"})
	if len(edges) != 2 {
		return spec, fmt.Errorf("model: trusted %s has degree %d; descriptor spec covers degree 2 only", trusted, len(edges))
	}
	a, b := p.Exchanges[edges[0]], p.Exchanges[edges[1]]

	var works []Action
	works = append(works, DepositActions(a)...)
	works = append(works, Notify(trusted, b.Principal))
	works = append(works, DepositActions(b)...)
	works = append(works, Notify(trusted, a.Principal))
	works = append(works, ReceiptActions(a)...)
	works = append(works, ReceiptActions(b)...)
	spec.Descriptors = append(spec.Descriptors, Descriptor{Name: "exchange works", Actions: works})
	spec.Preferred = len(spec.Descriptors) - 1

	for k, ei := range edges {
		e := p.Exchanges[ei]
		other := p.Exchanges[edges[1-k]]
		var backout []Action
		backout = append(backout, DepositActions(e)...)
		backout = append(backout, Notify(trusted, other.Principal))
		for _, d := range DepositActions(e) {
			backout = append(backout, d.Compensation())
		}
		spec.Descriptors = append(spec.Descriptors, Descriptor{
			Name:    fmt.Sprintf("notification expires, %s refunded", e.Principal),
			Actions: backout,
		})
	}
	return spec, nil
}

// TrustedNeutral is the semantic guarantee check for a trusted component
// of any degree: at the end of the exchange it holds nothing (every asset
// that flowed in flowed out, either forward to its destination or back to
// its source) — the conduit property of Section 2.5. Indemnity
// collateral movements are included: collateral must be refunded or
// forfeited, never retained.
func TrustedNeutral(s State, trusted PartyID) bool {
	cash, items := s.Delta(trusted)
	return cash == 0 && len(items) == 0
}
