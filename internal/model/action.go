package model

import "fmt"

// ActionKind distinguishes the transfer schemas of Section 2.2 plus the
// trusted component's notify of Section 2.5.
type ActionKind int

// Action kinds. Paper notation in comments.
const (
	ActionInvalid ActionKind = iota
	ActionGive               // give_{a→b}(d)
	ActionPay                // pay_{b→a}(m)
	ActionNotify             // notify(x)
)

// String returns the paper's name for the kind.
func (k ActionKind) String() string {
	switch k {
	case ActionGive:
		return "give"
	case ActionPay:
		return "pay"
	case ActionNotify:
		return "notify"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// Action is one primitive event of an exchange. Actions are comparable
// values so that a State can be a set keyed on them, exactly matching the
// paper's representation of states as unordered action sets.
//
// An Inverse action is the mathematical compensation of Section 2.2:
// give⁻¹_{a→b}(d) carries the same From/To as the give it compensates
// (the asset physically flows back from b to a).
type Action struct {
	Kind ActionKind
	From PartyID
	To   PartyID

	// Item is set for give actions, Amount for pay actions.
	Item   ItemID
	Amount Money

	// Inverse marks a compensation (give⁻¹ / pay⁻¹).
	Inverse bool
}

// Give constructs give_{from→to}(item).
func Give(from, to PartyID, item ItemID) Action {
	return Action{Kind: ActionGive, From: from, To: to, Item: item}
}

// Pay constructs pay_{from→to}(amount).
func Pay(from, to PartyID, amount Money) Action {
	return Action{Kind: ActionPay, From: from, To: to, Amount: amount}
}

// Notify constructs the trusted component's notify(to) issued by from.
func Notify(from, to PartyID) Action {
	return Action{Kind: ActionNotify, From: from, To: to}
}

// Compensation returns the inverse action compensating a. Notify actions
// have no compensation and cause a panic (programming error, per the
// don't-return-impossible-errors guideline).
func (a Action) Compensation() Action {
	if a.Kind == ActionNotify {
		panic("model: notify actions have no compensation")
	}
	if a.Inverse {
		panic("model: compensations are not themselves compensated")
	}
	inv := a
	inv.Inverse = true
	return inv
}

// IsTransfer reports whether the action physically moves an asset
// (give/pay, or their inverses). Notifications move information only.
func (a Action) IsTransfer() bool {
	return a.Kind == ActionGive || a.Kind == ActionPay
}

// Asset returns the bundle the action moves, in the direction it actually
// flows: forward actions flow From→To; inverse actions flow To→From.
func (a Action) Asset() Bundle {
	switch a.Kind {
	case ActionGive:
		// One item is already normalized; skip Goods' copy and sort.
		return Bundle{Items: []ItemID{a.Item}}
	case ActionPay:
		return Cash(a.Amount)
	default:
		return Bundle{}
	}
}

// Mover returns the party that physically relinquishes the asset: From
// for a forward transfer, To for a compensation (the original recipient
// returns the asset).
func (a Action) Mover() PartyID {
	if a.Inverse {
		return a.To
	}
	return a.From
}

// Receiver returns the party that physically obtains the asset.
func (a Action) Receiver() PartyID {
	if a.Inverse {
		return a.From
	}
	return a.To
}

// Actor returns the party "performing" the action in the sense of the
// Section 2.3 acceptability rule ("does not contain another action by
// that party"): the named sender for forward actions, the compensating
// recipient for inverses, and the notifying trusted component for notify.
func (a Action) Actor() PartyID { return a.Mover() }

// Involves reports whether p appears on either side of the action.
func (a Action) Involves(p PartyID) bool { return a.From == p || a.To == p }

// String renders the action in the paper's notation, e.g.
// "give_{b→t1}(d)", "pay⁻¹_{c→t1}($100)", "notify(t1→b)".
func (a Action) String() string {
	inv := ""
	if a.Inverse {
		inv = "⁻¹"
	}
	switch a.Kind {
	case ActionGive:
		return fmt.Sprintf("give%s_{%s→%s}(%s)", inv, a.From, a.To, a.Item)
	case ActionPay:
		return fmt.Sprintf("pay%s_{%s→%s}(%s)", inv, a.From, a.To, a.Amount)
	case ActionNotify:
		return fmt.Sprintf("notify(%s→%s)", a.From, a.To)
	default:
		return fmt.Sprintf("invalid-action(%+v)", struct {
			From, To PartyID
		}{a.From, a.To})
	}
}

// Validate checks structural invariants.
func (a Action) Validate() error {
	if a.From == "" || a.To == "" {
		return fmt.Errorf("model: action %v has empty endpoint", a)
	}
	if a.From == a.To {
		return fmt.Errorf("model: action %v is a self-transfer", a)
	}
	switch a.Kind {
	case ActionGive:
		if a.Item == "" {
			return fmt.Errorf("model: give action %v without item", a)
		}
		if a.Amount != 0 {
			return fmt.Errorf("model: give action %v carries money", a)
		}
	case ActionPay:
		if a.Amount <= 0 {
			return fmt.Errorf("model: pay action %v with non-positive amount", a)
		}
		if a.Item != "" {
			return fmt.Errorf("model: pay action %v carries an item", a)
		}
	case ActionNotify:
		if a.Inverse {
			return fmt.Errorf("model: notify action %v cannot be inverse", a)
		}
		if a.Item != "" || a.Amount != 0 {
			return fmt.Errorf("model: notify action %v carries an asset", a)
		}
	default:
		return fmt.Errorf("model: action with invalid kind %v", a.Kind)
	}
	return nil
}
