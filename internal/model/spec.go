package model

import (
	"cmp"
	"slices"
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
	n := transfers(b)
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
// examples (property-tested against the test oracle in
// descriptor_oracle_test.go) and stays exact for problems too large to
// enumerate.
//
// s is a state of p. A party unknown to the problem has nothing at risk.
func Acceptable(p *Problem, principal PartyID, s State) bool {
	party, ok := s.t.PartySlot(principal)
	return !ok || s.t.Acceptable(party, s, false)
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
	party, ok := s.t.PartySlot(principal)
	return !ok || s.t.Acceptable(party, s, true)
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
