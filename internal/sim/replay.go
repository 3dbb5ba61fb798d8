package sim

import (
	"fmt"

	"trustseq/internal/ledger"
	"trustseq/internal/model"
)

// ReplayBalances reconstructs final balances from a delivered-message
// trace alone: every transfer is replayed through a fresh ledger
// (sender debited, receiver credited, conservation audited), and the
// result must equal the balances the live run produced. This is the
// audit-log property the trace exists for — a run's Trace is a complete
// record of the commits and unwinds, sufficient to re-derive who ended
// up with what without re-executing the protocol.
//
// The live run routes in-flight assets through a transit account
// between send and delivery; since a quiescent run's transit account is
// empty (Run errors otherwise), replaying each delivered transfer as a
// direct sender-to-receiver movement lands on the same final holdings.
func ReplayBalances(p *model.Compiled, trace []Message) (map[model.PartyID]*model.Holding, error) {
	book := ledger.New(p)
	for i, m := range trace {
		if m.Kind != MsgTransfer {
			continue
		}
		if err := book.Transfer(m.Action.Mover(), m.Action.Receiver(), m.Action.Asset()); err != nil {
			return nil, fmt.Errorf("sim: replaying trace entry %d (%v): %w", i, m, err)
		}
	}
	if err := book.Audit(); err != nil {
		return nil, fmt.Errorf("sim: replayed ledger fails audit: %w", err)
	}
	out := make(map[model.PartyID]*model.Holding, len(p.Parties))
	for _, pa := range p.Parties {
		out[pa.ID] = book.Balance(pa.ID)
	}
	return out, nil
}

// ReplayBalances re-derives the run's final balances from its own
// trace; see the package-level ReplayBalances.
func (r *Result) ReplayBalances() (map[model.PartyID]*model.Holding, error) {
	return ReplayBalances(r.Problem, r.Trace)
}
