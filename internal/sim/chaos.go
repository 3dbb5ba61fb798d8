package sim

import (
	"fmt"
	"sort"

	"trustseq/internal/model"
)

// TrustsDefectorPersona reports whether victim relies on a trusted
// component played by the defector — the accepted risk a direct-trust
// declaration carries (Section 2.5): losses to a directly trusted
// defector are outside the protection claim.
func TrustsDefectorPersona(p *model.Compiled, victim, defector model.PartyID) bool {
	for _, e := range p.Exchanges {
		if e.Principal != victim {
			continue
		}
		if q, ok := p.PersonaOf(e.Trusted); ok && q == defector {
			return true
		}
	}
	return false
}

// ChaosViolations audits a finished run against the safety contract the
// chaos layer must never break, returning one description per violation
// (empty means safe). The contract, per the paper's protection claim
// restricted to what faults may legitimately cost:
//
//   - Every honest principal keeps per-exchange asset integrity, with
//     two exceptions: an indemnity OFFERER may forfeit its collateral
//     under deadline pressure, but only with the payout observable in
//     the final state; and a party that declared direct trust in a
//     defector accepted that loss.
//   - Every honest trusted component ends neutral — holding nothing —
//     even across crash-restarts (personas of defectors are corrupt and
//     exempt).
//   - The trace is a complete audit log: replaying its transfers alone
//     reproduces the live balances exactly, fault events included.
func ChaosViolations(res *Result, defectors map[model.PartyID]int) []string {
	p := res.Problem
	var out []string

	offerers := make(map[model.PartyID]bool)
	forfeited := false
	payouts := p.ActionTable().Payout
	for oi, off := range p.Indemnities {
		offerers[off.By] = true
		if s := payouts[oi]; s >= 0 && res.State.HasSlot(int(s)) {
			forfeited = true
		}
	}
	trustsADefector := func(victim model.PartyID) bool {
		for d := range defectors {
			if TrustsDefectorPersona(p, victim, d) {
				return true
			}
		}
		return false
	}

	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			honest := true
			if q, ok := p.PersonaOf(pa.ID); ok {
				if _, defects := defectors[q]; defects {
					honest = false
				}
			}
			if honest && !res.TrustedNeutral(pa.ID) {
				out = append(out, fmt.Sprintf("trusted %s not neutral: %v", pa.ID, res.Balances[pa.ID]))
			}
			continue
		}
		if _, defects := defectors[pa.ID]; defects {
			continue
		}
		if res.AssetsSafeFor(pa.ID) || trustsADefector(pa.ID) {
			continue
		}
		if offerers[pa.ID] && forfeited {
			continue // collateral forfeit with an observable payout
		}
		out = append(out, fmt.Sprintf("honest %s lost assets", pa.ID))
	}

	replayed, err := res.ReplayBalances()
	if err != nil {
		out = append(out, fmt.Sprintf("trace replay: %v", err))
		return out
	}
	ids := make([]string, 0, len(replayed))
	for id := range replayed {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, id := range ids {
		pid := model.PartyID(id)
		if !replayed[pid].Equal(res.Balances[pid]) {
			out = append(out, fmt.Sprintf("replayed balance of %s diverges: live %v, replay %v",
				pid, res.Balances[pid], replayed[pid]))
		}
	}
	return out
}
