package hierarchy

import (
	"testing"

	"trustseq/internal/core"
	"trustseq/internal/model"
	"trustseq/internal/sim"
)

// A two-level hierarchy: the buyer trusts a local escrow "west", the
// seller trusts "east", and a clearing house links them (west trusts
// clearing, east trusts clearing).
func clearingTopology() *Topology {
	return &Topology{
		PrincipalTrust: map[model.PartyID][]IntermediaryID{
			"alice": {"west"},
			"bob":   {"east"},
		},
		Hierarchy: []IntermediaryTrust{
			{Truster: "west", Trustee: "clearing"},
			{Truster: "east", Trustee: "clearing"},
		},
	}
}

func TestPathThroughClearingHouse(t *testing.T) {
	t.Parallel()
	topo := clearingTopology()
	path, ok := topo.Path("alice", "bob")
	if !ok {
		t.Fatalf("no path found")
	}
	if len(path) != 3 || path[0] != "west" || path[1] != "clearing" || path[2] != "east" {
		t.Fatalf("path = %v", path)
	}
	// No path for an unknown principal.
	if _, ok := topo.Path("alice", "mallory"); ok {
		t.Fatalf("path to untrusting principal")
	}
}

// The composite escrow compiles to a feasible, verifiable, simulatable
// exchange — no common intermediary needed, exactly the Section 9
// promise.
func TestEnableCompositeEscrow(t *testing.T) {
	t.Parallel()
	topo := clearingTopology()
	p, err := topo.Enable("alice", "bob", "deed", 100)
	if err != nil {
		t.Fatalf("Enable = %v", err)
	}
	plan, err := core.SynthesizeObs(p, nil)
	if err != nil {
		t.Fatalf("Synthesize = %v", err)
	}
	if !plan.Feasible {
		t.Fatalf("composite escrow infeasible:\n%s", plan.Reduction.Impasse())
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v", err)
	}
	res, err := sim.Run(plan, sim.Options{Seed: 9, Jitter: 3})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if !res.Completed() {
		t.Fatalf("simulation incomplete:\n%s", res.Summary())
	}
	if res.Balances["alice"].Items["deed"] != 1 {
		t.Errorf("alice lacks the deed: %v", res.Balances["alice"])
	}
	if res.Balances["bob"].Cash != 100 {
		t.Errorf("bob cash = %v", res.Balances["bob"].Cash)
	}
	// Zero-margin intermediaries end where they started.
	for _, id := range []model.PartyID{"via-west", "via-clearing", "via-east"} {
		cash, items := res.State.Delta(id)
		if cash != 0 || len(items) != 0 {
			t.Errorf("%s not neutral: %v %v", id, cash, items)
		}
	}
}

// Without the hierarchy edges the trust sets are disconnected and no
// exchange can be enabled.
func TestNoHierarchyNoExchange(t *testing.T) {
	t.Parallel()
	topo := clearingTopology()
	topo.Hierarchy = nil
	if _, err := topo.Enable("alice", "bob", "deed", 100); err == nil {
		t.Fatalf("Enable succeeded without hierarchy edges")
	}
}

// Direct overlap (both trust the same intermediary) yields the shortest
// chain: one intermediary, two hops.
func TestSharedIntermediaryShortPath(t *testing.T) {
	t.Parallel()
	topo := &Topology{
		PrincipalTrust: map[model.PartyID][]IntermediaryID{
			"alice": {"hub"},
			"bob":   {"hub"},
		},
	}
	path, ok := topo.Path("alice", "bob")
	if !ok || len(path) != 1 || path[0] != "hub" {
		t.Fatalf("path = %v, %v", path, ok)
	}
	p, err := topo.Enable("alice", "bob", "deed", 50)
	if err != nil {
		t.Fatalf("Enable = %v", err)
	}
	plan, err := core.SynthesizeObs(p, nil)
	if err != nil || !plan.Feasible {
		t.Fatalf("plan: %v feasible=%v", err, plan != nil && plan.Feasible)
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v", err)
	}
}

// A defecting clearing house harms exactly the parties whose hop it
// guards (the intermediaries that trusted it), never the end principals
// — alice and bob only ever risk assets with intermediaries they chose
// to trust.
func TestDefectingClearingHouse(t *testing.T) {
	t.Parallel()
	topo := clearingTopology()
	p, err := topo.Enable("alice", "bob", "deed", 100)
	if err != nil {
		t.Fatalf("Enable = %v", err)
	}
	plan, err := core.SynthesizeObs(p, nil)
	if err != nil || !plan.Feasible {
		t.Fatalf("plan: %v", err)
	}
	res, err := sim.Run(plan, sim.Options{
		Defectors: map[model.PartyID]int{"via-clearing": 0},
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if res.Completed() {
		t.Fatalf("completed despite silent clearing house")
	}
	for _, id := range []model.PartyID{"alice", "bob"} {
		if !res.AssetsSafeFor(id) {
			t.Errorf("%s lost assets to the clearing house:\n%s", id, res.Summary())
		}
	}
}

func TestEnableRejectsBadPrice(t *testing.T) {
	t.Parallel()
	if _, err := clearingTopology().Enable("alice", "bob", "deed", 0); err == nil {
		t.Fatalf("zero price accepted")
	}
}

func TestLongerChains(t *testing.T) {
	t.Parallel()
	topo := &Topology{
		PrincipalTrust: map[model.PartyID][]IntermediaryID{
			"alice": {"u1"},
			"bob":   {"u4"},
		},
		Hierarchy: []IntermediaryTrust{
			{Truster: "u1", Trustee: "u2"},
			{Truster: "u3", Trustee: "u2"}, // mixed directions
			{Truster: "u3", Trustee: "u4"},
		},
	}
	p, err := topo.Enable("alice", "bob", "deed", 40)
	if err != nil {
		t.Fatalf("Enable = %v", err)
	}
	plan, err := core.SynthesizeObs(p, nil)
	if err != nil {
		t.Fatalf("Synthesize = %v", err)
	}
	if !plan.Feasible {
		t.Fatalf("4-intermediary chain infeasible:\n%s", plan.Reduction.Impasse())
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v", err)
	}
	res, err := sim.Run(plan, sim.Options{Seed: 2, Jitter: 2})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if !res.Completed() {
		t.Fatalf("incomplete:\n%s", res.Summary())
	}
}
