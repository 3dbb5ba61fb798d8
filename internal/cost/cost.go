package cost

import (
	"fmt"

	"trustseq/internal/core"
	"trustseq/internal/model"
)

// Breakdown is a message-count decomposition for one protocol.
type Breakdown struct {
	Transfers  int
	Notifies   int
	Collateral int // indemnity posts + refunds/payouts
}

// Total sums the parts.
func (b Breakdown) Total() int { return b.Transfers + b.Notifies + b.Collateral }

// String renders the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("%d messages (%d transfers, %d notifies, %d collateral)",
		b.Total(), b.Transfers, b.Notifies, b.Collateral)
}

// PairwiseExchanges counts the logical pairwise exchanges of a problem:
// trusted components each mediate one (degree-2) exchange; a universal
// intermediary mediates several.
func PairwiseExchanges(p *model.Problem) int {
	return len(p.Exchanges) / 2
}

// DirectTrustCost is the Section 8 floor: two parties that trust each
// other exchange with two messages — each sending what the other wants.
func DirectTrustCost(p *model.Problem) Breakdown {
	return Breakdown{Transfers: 2 * PairwiseExchanges(p)}
}

// IntermediatedFloor is the Section 8 count for mutually distrusting
// parties: four messages per pairwise exchange — two into the trusted
// intermediary, two out.
func IntermediatedFloor(p *model.Problem) Breakdown {
	return Breakdown{Transfers: 4 * PairwiseExchanges(p)}
}

// PlanCost counts the messages a synthesized plan actually sends,
// including the notifications and collateral traffic the floors ignore.
func PlanCost(plan *core.Plan) (Breakdown, error) {
	if !plan.Feasible {
		return Breakdown{}, core.ErrInfeasible
	}
	var b Breakdown
	for _, st := range plan.Steps {
		switch st.Kind {
		case core.StepDeposit, core.StepDeliver:
			b.Transfers += len(st.Slots)
		case core.StepNotify:
			b.Notifies++
		case core.StepIndemnityPost, core.StepIndemnityRefund:
			b.Collateral++
		}
	}
	return b, nil
}

// ChainRow is one row of the Section 8 comparison table for a resale
// chain of the given depth.
type ChainRow struct {
	Brokers        int
	Exchanges      int
	Direct         int // messages with universal direct trust
	Intermediated  int // four-message floor
	PlanTotal      int // full synthesized protocol, notifications included
	PlanNotifies   int
	OverheadFactor float64 // PlanTotal / Direct
}

// ChainTable computes the cost-of-mistrust table for resale chains of
// depths 0..maxBrokers (E7). The synthesizer must find every chain
// feasible.
func ChainTable(maxBrokers int, retail model.Money, synth func(*model.Problem) (*core.Plan, error)) ([]ChainRow, error) {
	var rows []ChainRow
	for k := 0; k <= maxBrokers; k++ {
		p := chainProblem(k, retail)
		plan, err := synth(p)
		if err != nil {
			return nil, fmt.Errorf("cost: chain %d: %w", k, err)
		}
		if !plan.Feasible {
			return nil, fmt.Errorf("cost: chain %d unexpectedly infeasible", k)
		}
		pc, err := PlanCost(plan)
		if err != nil {
			return nil, err
		}
		direct := DirectTrustCost(p).Total()
		rows = append(rows, ChainRow{
			Brokers:        k,
			Exchanges:      PairwiseExchanges(p),
			Direct:         direct,
			Intermediated:  IntermediatedFloor(p).Total(),
			PlanTotal:      pc.Total(),
			PlanNotifies:   pc.Notifies,
			OverheadFactor: float64(pc.Total()) / float64(direct),
		})
	}
	return rows, nil
}

// chainProblem mirrors gen.Chain without importing it (gen imports model
// only; keeping cost free of gen avoids a dependency knot for callers
// that want custom chains).
func chainProblem(k int, retail model.Money) *model.Problem {
	if retail < model.Money(k+1) {
		retail = model.Money(k + 1)
	}
	p := &model.Problem{Name: fmt.Sprintf("cost-chain-%d", k)}
	p.Parties = append(p.Parties,
		model.Party{ID: "c", Role: model.RoleConsumer},
		model.Party{ID: "p", Role: model.RoleProducer},
	)
	chain := []model.PartyID{"c"}
	for i := 1; i <= k; i++ {
		id := model.PartyID(fmt.Sprintf("b%d", i))
		p.Parties = append(p.Parties, model.Party{ID: id, Role: model.RoleBroker})
		chain = append(chain, id)
	}
	chain = append(chain, "p")
	price := retail
	for i := 0; i+1 < len(chain); i++ {
		t := model.PartyID(fmt.Sprintf("t%d", i+1))
		p.Parties = append(p.Parties, model.Party{ID: t, Role: model.RoleTrusted})
		p.Exchanges = append(p.Exchanges,
			model.Exchange{Principal: chain[i], Trusted: t, Gives: model.Cash(price), Gets: model.Goods("d")},
			model.Exchange{Principal: chain[i+1], Trusted: t, Gives: model.Goods("d"), Gets: model.Cash(price)},
		)
		price--
	}
	return p
}

// UniversalOutcome is the result of the Section 8 single-intermediary
// protocol.
type UniversalOutcome struct {
	Feasible bool
	Messages Breakdown
	// State is the final exchange state (completed, or status quo after
	// returning every deposit).
	State model.State
}

// RunUniversal executes the Section 8 protocol: every principal sends
// its deposits and its constraints (its acceptability predicate) to one
// universal trusted intermediary; the intermediary checks that executing
// every exchange would satisfy every constraint, then either executes
// the whole distributed exchange atomically or returns everything.
//
// The problem passed in should already route every exchange through one
// trusted component (see paperex.UniversalTrust); RunUniversal verifies
// this.
func RunUniversal(p *model.Problem) (*UniversalOutcome, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var universal model.PartyID
	for _, pa := range p.Parties {
		if !pa.IsTrusted() {
			continue
		}
		if universal != "" {
			return nil, fmt.Errorf("cost: problem has multiple trusted components; universal protocol needs one")
		}
		universal = pa.ID
	}
	if universal == "" {
		return nil, fmt.Errorf("cost: no trusted component")
	}

	t := p.ActionTable()
	out := &UniversalOutcome{State: t.NewState()}

	// Phase 1: every principal deposits with the universal intermediary.
	// Identical actions from different exchanges (two $100 payments by
	// the same consumer to the same intermediary) collide in the paper's
	// set-of-actions representation — they share a slot of the action
	// table; the collision is harmless for the feasibility check, so
	// duplicates are tolerated while messages are counted per logical
	// transfer.
	for ei := range p.Exchanges {
		for _, d := range t.Deposits(ei) {
			out.State.AddSlot(int(d))
			out.Messages.Transfers++
		}
	}

	// Phase 2: the intermediary validates the hypothetical full execution
	// against every principal's constraints (acceptability of the
	// completed state) — "if all of the exchanges are made, then all of
	// the constraints will be satisfied".
	hypothetical := out.State.Clone()
	for ei := range p.Exchanges {
		for _, r := range t.Receipts(ei) {
			hypothetical.AddSlot(int(r))
		}
	}
	feasible := true
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			continue
		}
		if !model.Acceptable(p, pa.ID, hypothetical) {
			feasible = false
			break
		}
	}
	out.Feasible = feasible

	// Phase 3: execute atomically, or unwind.
	if feasible {
		out.State = hypothetical
		for ei := range p.Exchanges {
			out.Messages.Transfers += len(t.Receipts(ei))
		}
		return out, nil
	}
	for ei := range p.Exchanges {
		for _, d := range t.Deposits(ei) {
			out.State.AddSlot(int(d) + t.Transfers)
			out.Messages.Transfers++
		}
	}
	return out, nil
}
