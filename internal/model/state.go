package model

import (
	"fmt"
	"sort"
	"strings"
)

// State is the unordered set of actions executed so far in an exchange —
// the Section 2.3 representation. The zero value is not usable; call
// NewState.
type State struct {
	actions map[Action]struct{}
}

// NewState returns a state containing the given actions.
func NewState(actions ...Action) State {
	s := State{actions: make(map[Action]struct{}, len(actions))}
	for _, a := range actions {
		s.actions[a] = struct{}{}
	}
	return s
}

// NewStateCap returns an empty state with room for about n actions.
func NewStateCap(n int) State {
	return State{actions: make(map[Action]struct{}, n)}
}

// Add records an action. Adding an action already present is an error:
// the paper's set representation cannot express repeated actions, and the
// problem validator rejects specifications that would need them.
func (s State) Add(a Action) error {
	if _, ok := s.actions[a]; ok {
		return fmt.Errorf("model: action %v already in state", a)
	}
	s.actions[a] = struct{}{}
	return nil
}

// MustAdd is Add for callers that have already validated uniqueness.
func (s State) MustAdd(a Action) {
	if err := s.Add(a); err != nil {
		panic(err)
	}
}

// Has reports whether the action has occurred.
func (s State) Has(a Action) bool {
	_, ok := s.actions[a]
	return ok
}

// Len returns the number of actions executed.
func (s State) Len() int { return len(s.actions) }

// Clone returns an independent copy.
func (s State) Clone() State {
	out := State{actions: make(map[Action]struct{}, len(s.actions))}
	for a := range s.actions {
		out.actions[a] = struct{}{}
	}
	return out
}

// Superset reports whether s contains every action of other — the
// acceptability test's "contains a superset of the actions" clause.
func (s State) Superset(other State) bool {
	for a := range other.actions {
		if !s.Has(a) {
			return false
		}
	}
	return true
}

// Equal reports whether two states hold exactly the same action set.
func (s State) Equal(other State) bool {
	return len(s.actions) == len(other.actions) && s.Superset(other)
}

// Actions returns the actions in a deterministic order (sorted by their
// string rendering) — convenient for tests and display.
func (s State) Actions() []Action {
	out := make([]Action, 0, len(s.actions))
	for a := range s.actions {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ByParty returns the subset of actions performed by p in the Section 2.3
// sense (see Action.Actor).
func (s State) ByParty(p PartyID) []Action {
	var out []Action
	for _, a := range s.Actions() {
		if a.Actor() == p {
			out = append(out, a)
		}
	}
	return out
}

// Compensated reports whether the action has occurred and been undone.
func (s State) Compensated(a Action) bool {
	if a.Kind == ActionNotify || a.Inverse {
		return false
	}
	return s.Has(a) && s.Has(a.Compensation())
}

// NetReceived returns the assets party p has irrevocably received:
// forward transfers to p whose compensation has not occurred.
func (s State) NetReceived(p PartyID) *Holding {
	h := NewHolding()
	for a := range s.actions {
		if !a.IsTransfer() || a.Inverse {
			continue
		}
		if a.To == p && !s.Has(a.Compensation()) {
			h.Add(a.Asset())
		}
	}
	return h
}

// Delta returns p's signed asset flow over the whole state: assets
// received minus assets relinquished, counting compensations as physical
// back-flows. Money may go negative; item counts are reported via the
// second return, which maps each item to its signed count.
func (s State) Delta(p PartyID) (Money, map[ItemID]int) {
	var cash Money
	items := make(map[ItemID]int)
	for a := range s.actions {
		if !a.IsTransfer() {
			continue
		}
		sign := 0
		switch p {
		case a.Receiver():
			sign = +1
		case a.Mover():
			sign = -1
		default:
			continue
		}
		switch a.Kind {
		case ActionPay:
			cash += Money(sign) * a.Amount
		case ActionGive:
			items[a.Item] += sign
			if items[a.Item] == 0 {
				delete(items, a.Item)
			}
		}
	}
	return cash, items
}

// NetGiven returns the assets p has irrevocably relinquished: forward
// transfers from p that were not compensated back to p.
func (s State) NetGiven(p PartyID) *Holding {
	h := NewHolding()
	for a := range s.actions {
		if !a.IsTransfer() || a.Inverse {
			continue
		}
		if a.From == p && !s.Has(a.Compensation()) {
			h.Add(a.Asset())
		}
	}
	return h
}

// String renders the state as the paper writes it: {a₁, a₂, …}.
func (s State) String() string {
	acts := s.Actions()
	parts := make([]string, len(acts))
	for i, a := range acts {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Descriptor is one partial state description from a party's
// acceptable-state specification (Section 2.3): any state containing a
// superset of its actions, with no further action by the party, is
// acceptable.
type Descriptor struct {
	Name    string // human label, e.g. "status quo", "exchange completed"
	Actions []Action
}

// Matches implements the Section 2.3 acceptance test for one descriptor:
// state ⊇ descriptor, and every action performed by `party` in the state
// already appears in the descriptor.
func (d Descriptor) Matches(party PartyID, s State) bool {
	in := make(map[Action]struct{}, len(d.Actions))
	for _, a := range d.Actions {
		if !s.Has(a) {
			return false
		}
		in[a] = struct{}{}
	}
	for _, a := range s.ByParty(party) {
		if _, ok := in[a]; !ok {
			return false
		}
	}
	return true
}

// Spec is a party's full acceptability specification: a set of
// descriptors plus the single preferred one (Section 2.3's device that
// prevents a seller from always refunding).
type Spec struct {
	Party       PartyID
	Descriptors []Descriptor
	Preferred   int // index into Descriptors
}

// Accepts reports whether the state is acceptable to the party: some
// descriptor matches.
func (sp Spec) Accepts(s State) bool {
	for _, d := range sp.Descriptors {
		if d.Matches(sp.Party, s) {
			return true
		}
	}
	return false
}

// PreferredDescriptor returns the preferred outcome.
func (sp Spec) PreferredDescriptor() Descriptor {
	if sp.Preferred < 0 || sp.Preferred >= len(sp.Descriptors) {
		return Descriptor{Name: "unspecified"}
	}
	return sp.Descriptors[sp.Preferred]
}

// Validate checks the spec is well formed.
func (sp Spec) Validate() error {
	if sp.Party == "" {
		return fmt.Errorf("model: spec without party")
	}
	if len(sp.Descriptors) == 0 {
		return fmt.Errorf("model: spec for %s has no descriptors", sp.Party)
	}
	if sp.Preferred < 0 || sp.Preferred >= len(sp.Descriptors) {
		return fmt.Errorf("model: spec for %s has out-of-range preferred index %d", sp.Party, sp.Preferred)
	}
	for _, d := range sp.Descriptors {
		for _, a := range d.Actions {
			if err := a.Validate(); err != nil {
				return fmt.Errorf("model: spec for %s, descriptor %q: %w", sp.Party, d.Name, err)
			}
		}
	}
	return nil
}
