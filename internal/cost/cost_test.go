package cost

import (
	"strings"
	"testing"

	"math/rand"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/sequencing"
)

// E7: the Section 8 floors — 2 messages under direct trust, 4 through an
// intermediary — for a single pairwise exchange.
func TestSection8Floors(t *testing.T) {
	t.Parallel()
	p := &model.Problem{
		Name: "pair",
		Parties: []model.Party{
			{ID: "c", Role: model.RoleConsumer},
			{ID: "p", Role: model.RoleProducer},
			{ID: "t", Role: model.RoleTrusted},
		},
		Exchanges: []model.Exchange{
			{Principal: "c", Trusted: "t", Gives: model.Cash(10), Gets: model.Goods("d")},
			{Principal: "p", Trusted: "t", Gives: model.Goods("d"), Gets: model.Cash(10)},
		},
	}
	if got := DirectTrustCost(model.MustCompile(p)).Total(); got != 2 {
		t.Errorf("direct = %d, want 2", got)
	}
	if got := IntermediatedFloor(model.MustCompile(p)).Total(); got != 4 {
		t.Errorf("intermediated = %d, want 4", got)
	}
	plan, err := core.Synthesize(p)
	if err != nil {
		t.Fatalf("Synthesize = %v", err)
	}
	pc, err := PlanCost(plan)
	if err != nil {
		t.Fatalf("PlanCost = %v", err)
	}
	// The full protocol pays the 4-transfer floor plus one notification.
	if pc.Transfers != 4 {
		t.Errorf("plan transfers = %d, want 4", pc.Transfers)
	}
	if pc.Notifies < 1 {
		t.Errorf("plan notifies = %d, want >= 1", pc.Notifies)
	}
}

// E7: the chain table. Message counts grow linearly; the overhead factor
// of mistrust (plan vs direct) stays above 2× and the intermediated
// floor is exactly double the direct cost everywhere.
func TestChainTable(t *testing.T) {
	t.Parallel()
	rows, err := ChainTable(4, 100)
	if err != nil {
		t.Fatalf("ChainTable = %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Brokers != i || r.Exchanges != i+1 {
			t.Errorf("row %d: brokers=%d exchanges=%d", i, r.Brokers, r.Exchanges)
		}
		if r.Intermediated != 2*r.Direct {
			t.Errorf("row %d: intermediated %d != 2×direct %d", i, r.Intermediated, r.Direct)
		}
		if r.PlanTotal < r.Intermediated {
			t.Errorf("row %d: plan %d below the 4-message floor %d", i, r.PlanTotal, r.Intermediated)
		}
		if r.OverheadFactor < 2.0 {
			t.Errorf("row %d: overhead %.2f < 2", i, r.OverheadFactor)
		}
		if i > 0 {
			prev := rows[i-1]
			if r.PlanTotal-prev.PlanTotal != rows[1].PlanTotal-rows[0].PlanTotal {
				t.Errorf("row %d: per-hop message increment not constant", i)
			}
		}
	}
}

// E8: the universal intermediary makes Example 2 feasible without
// indemnities — while the sequencing-graph reduction on the same
// single-intermediary problem cannot show it feasible (the paper's
// acknowledged incompleteness; the Section 8 protocol is a different,
// more centralized mechanism).
func TestUniversalMakesExample2Feasible(t *testing.T) {
	t.Parallel()
	p := paperex.UniversalTrust(paperex.Example2())
	out, err := RunUniversal(model.MustCompile(p))
	if err != nil {
		t.Fatalf("RunUniversal = %v", err)
	}
	if !out.Feasible {
		t.Fatalf("universal protocol infeasible for example 2")
	}
	// Everyone ends acceptable, including the conjunction-constrained
	// consumer.
	// Note: TrustedNeutral cannot be evaluated on the universal problem's
	// final state — the consumer's two identical $100 payments collapse
	// in the paper's set-of-actions representation (a documented
	// expressiveness limit); message counting below stays exact.
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			continue
		}
		if !model.Acceptable(pa.ID, out.State) {
			t.Errorf("unacceptable to %s", pa.ID)
		}
	}
	// Message count: one per deposit action plus one per receipt action.
	if out.Messages.Total() != 16 {
		t.Errorf("messages = %d, want 16 (8 deposits + 8 deliveries)", out.Messages.Total())
	}

	// The graph reduction on the same problem reaches an impasse.
	if sequencing.Reduce(sequencing.Build(model.MustCompile(p)), nil).Feasible() {
		t.Errorf("reduction unexpectedly proves the universal problem feasible")
	}
}

// Section 8's claim is structural: for ANY validated single-intermediary
// problem, the hypothetical full execution satisfies every constraint
// (conservation at the intermediary guarantees everyone's Gets are
// covered), so the universal protocol always executes — "any exchange
// becomes feasible, without indemnities". Property-tested over random
// markets rewired through one intermediary. The unwind branch in
// RunUniversal is therefore unreachable for validated problems and kept
// only for robustness.
func TestUniversalAlwaysFeasibleProperty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(88))
	for i := 0; i < 40; i++ {
		p := gen.Random(rng, gen.Options{
			Consumers: 1 + rng.Intn(2), Brokers: 1 + rng.Intn(2), Producers: 1 + rng.Intn(3),
			MaxPrice: 40,
		})
		u := paperex.UniversalTrust(p)
		if hasActionCollisions(u) {
			// Two identical transfers (same payer, same amount, same
			// intermediary) collapse in the paper's set-of-actions
			// representation — the documented §2.3 expressiveness limit.
			// The structural claim holds for collision-free problems.
			continue
		}
		out, err := RunUniversal(model.MustCompile(u))
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if !out.Feasible {
			t.Fatalf("instance %d: universal protocol infeasible", i)
		}
		for _, pa := range u.Parties {
			if pa.IsTrusted() {
				continue
			}
			if !model.Acceptable(pa.ID, out.State) {
				t.Errorf("instance %d: unacceptable to %s", i, pa.ID)
			}
		}
	}
}

func TestRunUniversalRejectsMultipleTrusted(t *testing.T) {
	t.Parallel()
	if _, err := RunUniversal(model.MustCompile(paperex.Example2())); err == nil {
		t.Fatalf("accepted multi-intermediary problem")
	}
}

func TestPlanCostRequiresFeasible(t *testing.T) {
	t.Parallel()
	plan, err := core.Synthesize(paperex.Example2())
	if err != nil {
		t.Fatalf("Synthesize = %v", err)
	}
	if _, err := PlanCost(plan); err == nil {
		t.Fatalf("PlanCost accepted infeasible plan")
	}
}

// Indemnity traffic is visible in the cost breakdown.
func TestPlanCostCountsCollateral(t *testing.T) {
	t.Parallel()
	plan, err := core.Synthesize(paperex.Example2Indemnified())
	if err != nil {
		t.Fatalf("Synthesize = %v", err)
	}
	pc, err := PlanCost(plan)
	if err != nil {
		t.Fatalf("PlanCost = %v", err)
	}
	if pc.Collateral != 2 { // one post + one refund
		t.Errorf("collateral messages = %d, want 2", pc.Collateral)
	}
	if !strings.Contains(pc.String(), "collateral") {
		t.Errorf("String = %q", pc.String())
	}
}

// hasActionCollisions reports whether two distinct exchanges of the
// problem share an identical deposit or receipt action.
func hasActionCollisions(p *model.Problem) bool {
	seen := make(map[model.Action]bool)
	for _, e := range p.Exchanges {
		for _, a := range model.DepositActions(e) {
			if seen[a] {
				return true
			}
			seen[a] = true
		}
		for _, a := range model.ReceiptActions(e) {
			if seen[a] {
				return true
			}
			seen[a] = true
		}
	}
	return false
}
