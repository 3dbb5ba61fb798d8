package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/safety"
)

func synth(t testing.TB, p *model.Problem) *Plan {
	t.Helper()
	plan, err := Synthesize(p)
	if err != nil {
		t.Fatalf("Synthesize(%s) = %v", p.Name, err)
	}
	return plan
}

// E1: the Example 1 execution sequence has exactly the paper's ten steps
// (Section 5), as the same multiset and with every ordering property the
// paper derives.
func TestExample1ExecutionSequence(t *testing.T) {
	t.Parallel()
	plan := synth(t, paperex.Example1())
	if !plan.Feasible {
		t.Fatalf("Example 1 infeasible")
	}
	if got := len(plan.ActionSteps()); got != 10 {
		t.Fatalf("steps = %d, want 10 (Section 5):\n%s", got, plan.ExecutionSequence())
	}

	// The step multiset matches the paper's list.
	type key struct {
		kind     StepKind
		from, to model.PartyID
	}
	counts := make(map[key]int)
	for _, s := range plan.ActionSteps() {
		counts[key{s.Kind, s.From, s.To}]++
	}
	want := map[key]int{
		{StepDeposit, paperex.Producer, paperex.Trusted2}: 1, // 1. p sends d to t2
		{StepNotify, paperex.Trusted2, paperex.Broker}:    1, // 2. t2 notifies b
		{StepDeposit, paperex.Consumer, paperex.Trusted1}: 1, // 3. c sends $ to t1
		{StepNotify, paperex.Trusted1, paperex.Broker}:    1, // 4. t1 notifies b
		{StepDeposit, paperex.Broker, paperex.Trusted2}:   1, // 5. b sends $ to t2
		{StepDeliver, paperex.Trusted2, paperex.Broker}:   1, // 6. t2 sends d to b
		{StepDeliver, paperex.Trusted2, paperex.Producer}: 1, // 7. t2 sends $ to p
		{StepDeposit, paperex.Broker, paperex.Trusted1}:   1, // 8. b sends d to t1
		{StepDeliver, paperex.Trusted1, paperex.Consumer}: 1, // 9. t1 sends d to c
		{StepDeliver, paperex.Trusted1, paperex.Broker}:   1, // 10. t1 sends $ to b
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("step %v×%d missing (have %d):\n%s", k, n, counts[k], plan.ExecutionSequence())
		}
	}

	idx := func(kind StepKind, from, to model.PartyID) int {
		for i, s := range plan.ActionSteps() {
			if s.Kind == kind && s.From == from && s.To == to {
				return i
			}
		}
		t.Fatalf("step %v %s→%s not found", kind, from, to)
		return -1
	}
	// Ordering properties the paper derives:
	// The broker pays t2 only after being notified by t1 (the constraint
	// pay_{b→X} → notify(b)) and after t2 notified it.
	bPays := idx(StepDeposit, paperex.Broker, paperex.Trusted2)
	if n := idx(StepNotify, paperex.Trusted1, paperex.Broker); n > bPays {
		t.Errorf("broker pays t2 before t1's notification")
	}
	if n := idx(StepNotify, paperex.Trusted2, paperex.Broker); n > bPays {
		t.Errorf("broker pays t2 before t2's notification")
	}
	// The red-edge commitment (broker's sale via t1) executes last among
	// deposits: the broker hands the document to t1 only after obtaining
	// it from t2.
	bDelivers := idx(StepDeposit, paperex.Broker, paperex.Trusted1)
	if d := idx(StepDeliver, paperex.Trusted2, paperex.Broker); d > bDelivers {
		t.Errorf("broker gives the document before receiving it")
	}
	// Deposits precede their trusted component's deliveries.
	if idx(StepDeposit, paperex.Consumer, paperex.Trusted1) > idx(StepDeliver, paperex.Trusted1, paperex.Consumer) {
		t.Errorf("t1 delivers before the consumer deposits")
	}
}

// Every feasible paper example synthesizes a plan that passes full
// verification: funded transfers, prefix safety for every principal
// after every step, completion, acceptability, trusted neutrality.
func TestVerifyAllFeasibleExamples(t *testing.T) {
	t.Parallel()
	feasible := []string{
		"example1", "example2-variant1", "example2-indemnified",
	}
	all := paperex.All()
	for _, name := range feasible {
		name := name
		p, ok := all[name]
		if !ok {
			t.Fatalf("missing example %s", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plan := synth(t, p)
			if !plan.Feasible {
				t.Fatalf("%s infeasible:\n%s", name, plan.Reduction.Impasse())
			}
			if err := plan.Verify(); err != nil {
				t.Fatalf("Verify(%s) = %v\n%s", name, err, plan.ExecutionSequence())
			}
		})
	}
}

// Infeasible examples yield Feasible=false without error, and Verify
// reports ErrInfeasible.
func TestInfeasibleExamples(t *testing.T) {
	t.Parallel()
	infeasible := []string{"example2", "example2-variant2", "example1-poor-broker", "figure7"}
	all := paperex.All()
	for _, name := range infeasible {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plan := synth(t, all[name])
			if plan.Feasible {
				t.Fatalf("%s reported feasible:\n%s", name, plan.ExecutionSequence())
			}
			if err := plan.Verify(); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("Verify = %v, want ErrInfeasible", err)
			}
			if !strings.Contains(plan.ExecutionSequence(), "infeasible") {
				t.Errorf("ExecutionSequence missing infeasible notice")
			}
		})
	}
}

// The indemnified Example 2 plan posts Broker1's collateral before the
// consumer's covered deposit and after the source's document is in
// escrow, and refunds it at the end (the paper's happy path).
func TestIndemnifiedPlanOrdersCollateral(t *testing.T) {
	t.Parallel()
	plan := synth(t, paperex.Example2Indemnified())
	if !plan.Feasible {
		t.Fatalf("infeasible")
	}
	post, refund, coveredDeposit, sourceDeposit := -1, -1, -1, -1
	for i, s := range plan.Steps {
		switch {
		case s.Kind == StepIndemnityPost:
			post = i
		case s.Kind == StepIndemnityRefund:
			refund = i
		case s.Kind == StepDeposit && s.Exchange == paperex.Example2ConsumerDoc1:
			coveredDeposit = i
		case s.Kind == StepDeposit && s.Exchange == paperex.Example2S1Provide:
			sourceDeposit = i
		}
	}
	if post < 0 || refund < 0 || coveredDeposit < 0 || sourceDeposit < 0 {
		t.Fatalf("missing steps (post=%d refund=%d covered=%d source=%d):\n%s",
			post, refund, coveredDeposit, sourceDeposit, plan.ExecutionSequence())
	}
	if !(sourceDeposit < post && post < coveredDeposit && coveredDeposit < refund) {
		t.Fatalf("collateral ordering wrong (source=%d post=%d covered=%d refund=%d):\n%s",
			sourceDeposit, post, coveredDeposit, refund, plan.ExecutionSequence())
	}
	// The collateral equals the price of the other document (Section 6).
	off := plan.Problem.Indemnities[0]
	if got := model.RequiredIndemnity(plan.Problem, off.Covers); got != 100 {
		t.Errorf("required indemnity = %v, want $100 (price of doc2)", got)
	}
}

// Variant 1 (source trusts broker) must verify end to end, exercising the
// persona clause inside a full plan.
func TestVariant1PlanUsesPersona(t *testing.T) {
	t.Parallel()
	plan := synth(t, paperex.Example2Variant1())
	if !plan.Feasible {
		t.Fatalf("variant 1 infeasible")
	}
	usedPersona := false
	for _, rm := range plan.Reduction.Removals {
		if rm.ByPersona {
			usedPersona = true
		}
	}
	if !usedPersona {
		t.Errorf("plan did not use the persona clause")
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v", err)
	}
}

// A plan that lies about one deposit amount names an action no exchange
// defines. The action table gives it no slot, so it cannot enter a plan,
// and replaying it is refused as foreign: it would move assets the
// specification never promised. The nearest a plan can come is a slot
// outside the table, which Verify must refuse instead of indexing.
func TestVerifyRejectsForeignAction(t *testing.T) {
	t.Parallel()
	plan := synth(t, paperex.Example1())
	tab := plan.Problem.ActionTable()
	for si, st := range plan.Steps {
		if st.Kind != StepDeposit || tab.Action(int(st.Slots[0])).Kind != model.ActionPay {
			continue
		}
		lie := tab.Action(int(st.Slots[0]))
		lie.Amount--
		if s, ok := tab.Slot(lie); ok {
			t.Fatalf("the action table gives %v slot %d", lie, s)
		}
		var foreign *model.ForeignActionError
		if err := safety.NewExec(plan.Problem).Apply(lie); !errors.As(err, &foreign) || foreign.Action != lie {
			t.Fatalf("Apply(%v) = %v, want a *model.ForeignActionError", lie, err)
		}
		for _, bad := range []int32{int32(tab.Len()), -1} {
			planted := slices.Clone(st.Slots)
			planted[0] = bad
			plan.Steps[si].Slots = planted
			if err := plan.Verify(); !errors.Is(err, safety.ErrUnknownSlot) {
				t.Fatalf("Verify with slot %d planted in step %d = %v, want safety.ErrUnknownSlot", bad, si, err)
			}
		}
		plan.Steps[si].Slots = st.Slots
		if err := plan.Verify(); err != nil {
			t.Fatalf("Verify after restoring step %d = %v", si, err)
		}
		return
	}
	t.Fatal("the Example 1 plan has no cash deposit")
}

// A funded broker variant of the poor-broker problem must be feasible and
// verify — the Section 5 observation that the broker "must have the funds
// to purchase the document before it receives the customer's money".
func TestFundedBrokerFeasible(t *testing.T) {
	t.Parallel()
	p := paperex.PoorBroker()
	for i := range p.Parties {
		if p.Parties[i].ID == paperex.Broker {
			p.Parties[i].Endowment = paperex.WholesalePrice
		}
	}
	p.Name = "example1-funded-broker"
	plan := synth(t, p)
	if !plan.Feasible {
		t.Fatalf("funded broker infeasible")
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v", err)
	}
}

// Fully indemnified Figure 7 (brokers 3 and 2 post collateral, the
// cheapest piece left uncovered) becomes feasible, matching the Section 6
// minimum-indemnity ordering.
func TestFigure7FullyIndemnifiedFeasible(t *testing.T) {
	t.Parallel()
	p := paperex.Figure7()
	p.Indemnities = append(p.Indemnities,
		model.IndemnityOffer{By: paperex.Broker3, Covers: paperex.Figure7ConsumerDoc3, Via: paperex.Trusted5},
		model.IndemnityOffer{By: paperex.Broker2, Covers: paperex.Figure7ConsumerDoc2, Via: paperex.Trusted3},
	)
	plan := synth(t, p)
	if !plan.Feasible {
		t.Fatalf("indemnified Figure 7 infeasible:\n%s", plan.Reduction.Impasse())
	}
	if err := plan.Verify(); err != nil {
		t.Fatalf("Verify = %v\n%s", err, plan.ExecutionSequence())
	}
	// Indemnity amounts per Figure 7: $30 for doc3, $40 for doc2.
	if got := model.RequiredIndemnity(p, paperex.Figure7ConsumerDoc3); got != 30 {
		t.Errorf("doc3 indemnity = %v, want $30", got)
	}
	if got := model.RequiredIndemnity(p, paperex.Figure7ConsumerDoc2); got != 40 {
		t.Errorf("doc2 indemnity = %v, want $40", got)
	}
}

// A partially indemnified Figure 7 (only one collateral) stays
// infeasible: "Even after Broker #1 offers the indemnity, the transaction
// is not feasible, because the problem is essentially still a two broker
// problem between #2 and #3."
func TestFigure7PartiallyIndemnifiedInfeasible(t *testing.T) {
	t.Parallel()
	p := paperex.Figure7()
	p.Indemnities = append(p.Indemnities,
		model.IndemnityOffer{By: paperex.Broker1, Covers: paperex.Figure7ConsumerDoc1, Via: paperex.Trusted1},
	)
	plan := synth(t, p)
	if plan.Feasible {
		t.Fatalf("one indemnity should not suffice for three brokers")
	}
}

func TestStepKindString(t *testing.T) {
	t.Parallel()
	for k, want := range map[StepKind]string{
		StepIndemnityPost:   "indemnity-post",
		StepDeposit:         "deposit",
		StepNotify:          "notify",
		StepDeliver:         "deliver",
		StepIndemnityRefund: "indemnity-refund",
		StepInvalid:         "step(0)",
	} {
		if got := k.String(); got != want {
			t.Errorf("StepKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestSynthesizeRejectsInvalidProblem(t *testing.T) {
	t.Parallel()
	p := paperex.Example1()
	p.Exchanges[0].Principal = "ghost"
	if _, err := Synthesize(p); err == nil {
		t.Fatalf("Synthesize accepted invalid problem")
	}
}

func TestExecutionSequenceRendering(t *testing.T) {
	t.Parallel()
	plan := synth(t, paperex.Example1())
	out := plan.ExecutionSequence()
	for _, want := range []string{"c sends $100 to t1", "t2 notifies b", "t1 sends doc \"d\" to c"} {
		if !strings.Contains(out, want) {
			t.Errorf("sequence missing %q:\n%s", want, out)
		}
	}
}

func TestStepString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		step Step
		want string
	}{
		{Step{Kind: StepDeposit, From: "a", To: "t"}, "a sends deposit to t"},
		{Step{Kind: StepNotify, From: "t", To: "b"}, "t notifies b"},
		{Step{Kind: StepDeliver, From: "t", To: "c"}, "t delivers to c"},
		{Step{Kind: StepIndemnityPost, From: "b", To: "t"}, "b posts indemnity collateral with t"},
		{Step{Kind: StepIndemnityRefund, From: "t", To: "b"}, "t refunds indemnity collateral to b"},
		{Step{}, "invalid step"},
	}
	for _, tt := range tests {
		if got := tt.step.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
