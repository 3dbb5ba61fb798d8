package model

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"testing"
)

// This file is the Section 3.1 descriptor oracle: acceptable-state
// specifications written out as the paper enumerates them, over a
// map-based action set. The tests hold the semantic predicates
// (Acceptable, TrustedNeutral) to it.

// actionSet is the oracle's set of executed actions.
type actionSet map[Action]struct{}

// setOf returns the set of the given actions.
func setOf(actions ...Action) actionSet {
	s := make(actionSet, len(actions))
	for _, a := range actions {
		s[a] = struct{}{}
	}
	return s
}

// stateSet returns the actions of a State as a set.
func stateSet(s State) actionSet { return setOf(s.Actions()...) }

// mustAdd is Add for test states whose actions are known to be new.
func (s State) mustAdd(a Action) {
	if err := s.Add(a); err != nil {
		panic(err)
	}
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
func (d Descriptor) Matches(party PartyID, s actionSet) bool {
	in := setOf(d.Actions...)
	for a := range in {
		if _, ok := s[a]; !ok {
			return false
		}
	}
	for a := range s {
		if _, ok := in[a]; !ok && a.Actor() == party {
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
func (sp Spec) Accepts(s actionSet) bool {
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
func AutoSpec(p *Compiled, principal PartyID) Spec {
	groups := conjunctionGroups(p, principal)
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

// conjunctionGroups partitions a principal's exchange indices into
// all-or-nothing groups, ordered by first member: each exchange an
// indemnity offer splits out is a group of its own, and the unsplit rest
// is the table's Rest row (Section 6).
func conjunctionGroups(p *Compiled, principal PartyID) [][]int {
	t := p.table
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

// enumerateGroupOutcomes appends descriptors for every combination of
// per-exchange outcomes (completed / refunded / untouched) that respects
// the conjunction groups: within a group, either every exchange completes
// or none does (refunds and untouched exchanges may mix freely — the
// paper's broker accepts getting the document back on one side while the
// other side never started). The all-untouched and all-completed
// combinations are skipped: the caller already added them.
func enumerateGroupOutcomes(p *Compiled, principal PartyID, groups [][]int, spec *Spec) {
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
func GuaranteeHolds(sp Spec, s actionSet) bool {
	restricted := make(actionSet)
	for a := range s {
		if a.Involves(sp.Party) {
			restricted[a] = struct{}{}
		}
	}
	for _, d := range sp.Descriptors {
		if maps.Equal(restricted, setOf(d.Actions...)) {
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

// TrustedSpec generates the guarantee specification for a trusted
// component (Section 2.5): nothing happens; the exchange works (both
// deposits arrive, notifications issued, both deliveries made); or each
// one-sided prefix is compensated when the notification expires.
//
// The descriptors only cover degree-2 trusted components, the case the
// paper develops; larger components are checked semantically via
// TrustedNeutral.
func TrustedSpec(p *Compiled, trusted PartyID) (Spec, error) {
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

// The four acceptable customer states of Section 2.3, checked against the
// descriptor matcher.
func TestDescriptorMatchesPaperSection23(t *testing.T) {
	t.Parallel()
	payCP := Pay("c", "p", 100)
	givePC := Give("p", "c", "d")

	completed := Descriptor{Name: "completed", Actions: []Action{givePC, payCP}}
	refund := Descriptor{Name: "refund", Actions: []Action{payCP, payCP.Compensation()}}
	statusQuo := Descriptor{Name: "status quo"}
	windfall := Descriptor{Name: "windfall", Actions: []Action{givePC}}

	tests := []struct {
		name  string
		state actionSet
		desc  Descriptor
		want  bool
	}{
		{"completed matches", setOf(givePC, payCP), completed, true},
		{"refund matches", setOf(payCP, payCP.Compensation()), refund, true},
		{"status quo matches empty", setOf(), statusQuo, true},
		{"windfall matches", setOf(givePC), windfall, true},
		{"status quo rejects paid state", setOf(payCP), statusQuo, false},
		{"windfall rejects paid state", setOf(givePC, payCP), windfall, false},
		{"completed needs both", setOf(payCP), completed, false},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := tt.desc.Matches("c", tt.state); got != tt.want {
				t.Fatalf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSpecAcceptsAndPreferred(t *testing.T) {
	t.Parallel()
	payCP := Pay("c", "p", 100)
	givePC := Give("p", "c", "d")
	spec := Spec{
		Party: "c",
		Descriptors: []Descriptor{
			{Name: "status quo"},
			{Name: "completed", Actions: []Action{givePC, payCP}},
		},
		Preferred: 1,
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	if !spec.Accepts(setOf()) {
		t.Fatalf("empty state rejected")
	}
	if !spec.Accepts(setOf(givePC, payCP)) {
		t.Fatalf("completed state rejected")
	}
	if spec.Accepts(setOf(payCP)) {
		t.Fatalf("paid-without-goods accepted")
	}
	if spec.PreferredDescriptor().Name != "completed" {
		t.Fatalf("preferred = %q", spec.PreferredDescriptor().Name)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		spec Spec
		want string
	}{
		{"no party", Spec{}, "without party"},
		{"no descriptors", Spec{Party: "c"}, "no descriptors"},
		{"bad preferred", Spec{Party: "c", Descriptors: []Descriptor{{}}, Preferred: 3}, "out-of-range"},
		{"bad action", Spec{Party: "c", Descriptors: []Descriptor{{Name: "x", Actions: []Action{{From: "a", To: "b"}}}}}, "invalid kind"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			err := tt.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Validate = %v, want %q", err, tt.want)
			}
		})
	}
}

func TestSpecPreferredOutOfRangeIsUnspecified(t *testing.T) {
	t.Parallel()
	spec := Spec{Party: "c", Descriptors: []Descriptor{{Name: "only"}}, Preferred: 5}
	if got := spec.PreferredDescriptor().Name; got != "unspecified" {
		t.Fatalf("PreferredDescriptor = %q", got)
	}
}
