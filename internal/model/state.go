package model

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// State is the unordered set of actions executed so far in an exchange —
// the Section 2.3 representation — kept as a bitset over the slots of its
// problem's ActionTable. Actions equal as values share a slot, so they
// share an entry, and a State can hold only actions the problem defines.
// The zero value is not usable; call NewState or ActionTable.NewState.
type State struct {
	t    *ActionTable
	bits []uint64
}

// ForeignActionError reports an action that is not one of the problem's
// own — no exchange, indemnity offer or notification defines it. A State
// cannot hold it, and an execution fails closed on it instead of moving
// assets the specification never promised.
type ForeignActionError struct {
	Action Action
}

func (e *ForeignActionError) Error() string {
	return fmt.Sprintf("model: %v is not an action of the problem", e.Action)
}

// NewState returns a state of p holding the given actions, building p's
// action table on first use; a repeated action is held once. It panics
// with a *ForeignActionError on an action p does not define.
func NewState(p *Problem, actions ...Action) State {
	s := p.ActionTable().NewState()
	for _, a := range actions {
		slot, ok := s.t.Slot(a)
		if !ok {
			panic(&ForeignActionError{Action: a})
		}
		s.AddSlot(slot)
	}
	return s
}

// NewState returns the empty state over the table.
func (t *ActionTable) NewState() State {
	return State{t: t, bits: make([]uint64, (t.Len()+63)/64)}
}

// Add records an action. It fails with a *ForeignActionError on an
// action the problem does not define, and on an action already present:
// the paper's set representation cannot express repeated actions, and the
// problem validator rejects specifications that would need them.
func (s State) Add(a Action) error {
	slot, ok := s.t.Slot(a)
	if !ok {
		return &ForeignActionError{Action: a}
	}
	if !s.AddSlot(slot) {
		return fmt.Errorf("model: action %v already in state", a)
	}
	return nil
}

// AddSlot records the action in a slot of the table, reporting false
// when it was already present.
func (s State) AddSlot(slot int) bool {
	w, bit := slot>>6, uint64(1)<<(slot&63)
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	return true
}

// Has reports whether the action has occurred.
func (s State) Has(a Action) bool {
	slot, ok := s.t.Slot(a)
	return ok && s.HasSlot(slot)
}

// HasSlot reports whether the action in a slot of the table has occurred.
func (s State) HasSlot(slot int) bool { return s.bits[slot>>6]&(1<<(slot&63)) != 0 }

// Live reports whether forward transfer slot s occurred and was not
// compensated.
func (s State) Live(slot int) bool { return s.HasSlot(slot) && !s.HasSlot(slot+s.t.Transfers) }

// Delivered reports whether every receipt of exchange ei occurred and
// none was compensated.
func (s State) Delivered(ei int) bool {
	for _, r := range s.t.Receipts(ei) {
		if !s.Live(int(r)) {
			return false
		}
	}
	return true
}

// Len returns the number of actions executed.
func (s State) Len() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// each calls f with the slot of every executed action, ascending.
func (s State) each(f func(slot int)) {
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			f(w<<6 | bits.TrailingZeros64(word))
		}
	}
}

// Clone returns an independent copy.
func (s State) Clone() State { return s.CloneInto(State{}) }

// CloneInto returns an independent copy of s that reuses dst's storage.
func (s State) CloneInto(dst State) State {
	return State{t: s.t, bits: append(dst.bits[:0], s.bits...)}
}

// Equal reports whether two states hold exactly the same action set.
func (s State) Equal(other State) bool {
	if s.t == other.t {
		return slices.Equal(s.bits, other.bits)
	}
	if s.Len() != other.Len() {
		return false
	}
	same := true
	s.each(func(slot int) { same = same && other.Has(s.t.Action(slot)) })
	return same
}

// Actions returns the actions in a deterministic order (sorted by their
// string rendering) — convenient for tests and display.
func (s State) Actions() []Action {
	out := make([]Action, 0, s.Len())
	s.each(func(slot int) { out = append(out, s.t.Action(slot)) })
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Delta returns p's signed asset flow over the whole state: assets
// received minus assets relinquished, counting compensations as physical
// back-flows. Money may go negative; item counts are reported via the
// second return, which maps each item to its signed count.
func (s State) Delta(p PartyID) (Money, map[ItemID]int) {
	var cash Money
	items := make(map[ItemID]int)
	t := s.t
	party, ok := t.PartySlot(p)
	if !ok {
		return cash, items
	}
	s.each(func(slot int) {
		if slot >= 2*t.Transfers {
			return // notifies move nothing
		}
		fwd, from, to := t.Endpoints(slot)
		give := t.Give[fwd]
		var item ItemID
		if give {
			item, from, to = t.CellItem[from], t.CellParty[from], t.CellParty[to]
		}
		sign := 0
		switch int32(party) {
		case to:
			sign = +1
		case from:
			sign = -1
		default:
			return
		}
		if !give {
			cash += Money(sign) * t.Cash[fwd]
			return
		}
		items[item] += sign
		if items[item] == 0 {
			delete(items, item)
		}
	})
	return cash, items
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
