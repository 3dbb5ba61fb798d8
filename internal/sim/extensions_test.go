package sim

import (
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// E14 (extension; the paper assumes "deadlines ... always sufficiently
// generous" and defers tighter ones to future work): with a deadline too
// short for the protocol to finish, the exchange aborts — and the unwind
// still returns every asset. Asset safety is deadline-independent.
func TestTightDeadlinesAbortCleanly(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example1())
	for _, deadline := range []Time{1, 2, 3, 5, 8} {
		res, err := Run(pl, Options{Seed: 3, Jitter: 6, Deadline: deadline})
		if err != nil {
			t.Fatalf("deadline %d: %v", deadline, err)
		}
		for _, id := range []model.PartyID{paperex.Consumer, paperex.Broker, paperex.Producer} {
			if !res.AssetsSafeFor(id) {
				t.Errorf("deadline %d: %s lost assets:\n%s", deadline, id, res.Summary())
			}
		}
		if res.Completed() {
			continue // fast network beat the clock — fine
		}
		// Aborted runs end at the status quo: full refunds.
		if got := res.Balances[paperex.Consumer].Cash; got != paperex.RetailPrice {
			t.Errorf("deadline %d: consumer cash %v after abort", deadline, got)
		}
	}
	// A generous deadline completes.
	res, err := Run(pl, Options{Seed: 3, Jitter: 6, Deadline: 1000})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if !res.Completed() {
		t.Fatalf("generous deadline did not complete")
	}
}

// The deadline sweep across ALL feasible fixtures. Finding (documented
// in EXPERIMENTS.md): no deadline value ever costs a NON-offerer honest
// party assets; an indemnity OFFERER, however, bears deadline risk on
// its collateral — if the clock runs out after the protected principal
// paid but before delivery, the penalty forfeits even though the offerer
// is honest. That is the contract working as specified; the paper's
// "sufficiently generous" deadline assumption is exactly what shields
// the offerer.
func TestDeadlineSweepNeverLosesAssets(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"example1", "example2-variant1", "example2-indemnified"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pl := plan(t, paperex.All()[name])
			offerers := make(map[model.PartyID]bool)
			var payouts []model.Action
			for _, off := range pl.Problem.Indemnities {
				offerers[off.By] = true
				amount := off.Amount
				if amount == 0 {
					amount = model.RequiredIndemnity(&pl.Problem.Problem, off.Covers)
				}
				payouts = append(payouts,
					model.Pay(off.Via, pl.Problem.Exchanges[off.Covers].Principal, amount))
			}
			for deadline := Time(1); deadline <= 30; deadline += 4 {
				res, err := Run(pl, Options{Seed: int64(deadline), Jitter: 5, Deadline: deadline})
				if err != nil {
					t.Fatalf("deadline %d: %v", deadline, err)
				}
				for _, pa := range pl.Problem.Parties {
					if pa.IsTrusted() || res.AssetsSafeFor(pa.ID) {
						continue
					}
					if !offerers[pa.ID] {
						t.Errorf("deadline %d: non-offerer %s lost assets:\n%s", deadline, pa.ID, res.Summary())
						continue
					}
					// An offerer's only permissible loss is the forfeited
					// collateral — the payout must be observable.
					forfeited := false
					for _, payout := range payouts {
						if res.State.Has(payout) {
							forfeited = true
						}
					}
					if !forfeited {
						t.Errorf("deadline %d: offerer %s lost assets without a forfeit:\n%s",
							deadline, pa.ID, res.Summary())
					}
				}
			}
		})
	}
}

// E15 (extension; Section 9: "When an agent is trusted by more than two
// parties, additional distributed exchanges may become feasible"): a
// single trusted component mediating two pairwise exchanges bundles them
// into one atomic unit — its type-1 conjunction spans all four
// commitments, the reduction still clears, and the simulator completes
// both exchanges or neither.
func sharedIntermediaryProblem() *model.Problem {
	return &model.Problem{
		Name: "shared-intermediary",
		Parties: []model.Party{
			{ID: "c1", Role: model.RoleConsumer},
			{ID: "c2", Role: model.RoleConsumer},
			{ID: "p1", Role: model.RoleProducer},
			{ID: "p2", Role: model.RoleProducer},
			{ID: "t", Role: model.RoleTrusted},
		},
		Exchanges: []model.Exchange{
			{Principal: "c1", Trusted: "t", Gives: model.Cash(10), Gets: model.Goods("d1")},
			{Principal: "p1", Trusted: "t", Gives: model.Goods("d1"), Gets: model.Cash(10)},
			{Principal: "c2", Trusted: "t", Gives: model.Cash(20), Gets: model.Goods("d2")},
			{Principal: "p2", Trusted: "t", Gives: model.Goods("d2"), Gets: model.Cash(20)},
		},
	}
}

func TestSharedIntermediaryFeasibleAndAtomic(t *testing.T) {
	t.Parallel()
	p := sharedIntermediaryProblem()
	pl := plan(t, p)
	if err := pl.Verify(); err != nil {
		t.Fatalf("Verify = %v", err)
	}
	// Honest run completes both exchanges.
	res := run(t, pl, Options{Seed: 11, Jitter: 4})
	if !res.Completed() {
		t.Fatalf("shared intermediary did not complete:\n%s", res.Summary())
	}
	// With p2 silent, the shared intermediary refunds EVERYONE — the
	// bundling makes the two unrelated exchanges atomic.
	res = run(t, pl, Options{Defectors: map[model.PartyID]int{"p2": 0}})
	if res.Completed() {
		t.Fatalf("completed despite silent p2")
	}
	if got := res.Balances["c1"].Cash; got != 10 {
		t.Errorf("c1 cash = %v, want full refund", got)
	}
	if got := res.Balances["p1"].Items["d1"]; got != 1 {
		t.Errorf("p1 lost its document: %v", res.Balances["p1"])
	}
	for _, id := range []model.PartyID{"c1", "c2", "p1"} {
		if !res.AssetsSafeFor(id) {
			t.Errorf("%s lost assets:\n%s", id, res.Summary())
		}
	}
	if !res.TrustedNeutral("t") {
		t.Errorf("shared intermediary retained assets: %v", res.Balances["t"])
	}
}
