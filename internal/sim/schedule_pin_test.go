package sim

import (
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// TestSchedulePinned pins the settlement root and delivered-message
// count of three fixed runs. The root binds every delivered message in
// order, so any change to which events the simulator schedules, or in
// what order it delivers them, fails here — performance work on the
// node and ledger hot paths must leave these values untouched.
func TestSchedulePinned(t *testing.T) {
	t.Parallel()
	pop := plan(t, gen.Population(1000, 0, 10))
	ind := plan(t, paperex.All()["example2-indemnified"])
	var crashNode model.PartyID
	for _, pa := range ind.Problem.Parties {
		if pa.IsTrusted() {
			crashNode = pa.ID
			break
		}
	}
	cases := []struct {
		name     string
		run      func() (*Result, error)
		root     string
		messages int
		faults   bool // the case must fire crashes, duplicates and reorders
	}{
		{
			name: "population-1000-honest",
			run: func() (*Result, error) {
				return Run(pop, Options{Seed: 1, VLog: true})
			},
			root:     "972f002015badd84de1a14756b4820fabd4eb0c7570cbf1e8d3d572ee32c38e6",
			messages: 10000,
		},
		{
			name: "population-1000-one-defector",
			run: func() (*Result, error) {
				return Run(pop, Options{Seed: 2, VLog: true, Defectors: map[model.PartyID]int{"b500": 1}})
			},
			root:     "d22e3ea57bac23a7996a2f9ff061fee6779a78964824d46b741673931c627228",
			messages: 9998,
		},
		{
			name: "indemnified-crash-dup-reorder",
			run: func() (*Result, error) {
				return Run(ind, Options{Seed: 3, VLog: true, Deadline: 40, Faults: &FaultPlan{
					DupRate: 0.3, ReorderRate: 0.4, ReorderBound: 6,
					Crashes: []CrashEvent{{Node: crashNode, At: 5, Downtime: 12}},
				}})
			},
			root:     "89eca02c3e6bff861f3aaca4836a1fe0ef289754e193c53a66685a896dbb6871",
			messages: 24,
			faults:   true,
		},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fs := res.FaultStats; tc.faults && (fs.Crashes == 0 || fs.DupNotifies == 0 || fs.Reorders == 0) {
			t.Errorf("%s: fault plan did not fire every kind: %+v", tc.name, fs)
		}
		if res.SettlementRoot != tc.root || res.Messages != tc.messages {
			t.Errorf("%s: root %s, %d messages; pinned %s, %d",
				tc.name, res.SettlementRoot, res.Messages, tc.root, tc.messages)
		}
	}
}
