package model

// InitialHoldings infers what every party owns before the transaction
// begins:
//
//   - Items: a principal initially owns each item it gives on some
//     exchange but acquires on none (it must be the item's origin — the
//     producer). Brokers reselling an item acquire it mid-transaction and
//     start without it.
//   - Cash: LimitedFunds parties start with exactly their endowment.
//     Other parties are assumed amply funded: they start with the total
//     money they could ever need — their outgoing payments plus any
//     indemnity collateral they offer.
//
// Trusted components start empty: they are conduits (Section 2.5). The
// rules are evaluated once, into the action table's status-quo arrays;
// this materialises them per party.
func InitialHoldings(p *Problem) map[PartyID]*Holding {
	t := p.readTable()
	out := make(map[PartyID]*Holding, len(p.Parties))
	for i, pa := range p.Parties {
		out[pa.ID] = &Holding{Cash: t.InitCash[i], Items: make(map[ItemID]int)}
	}
	for ci, n := range t.InitItems {
		if n > 0 {
			out[p.Parties[t.CellParty[ci]].ID].Items[t.CellItem[ci]] += int(n)
		}
	}
	return out
}
