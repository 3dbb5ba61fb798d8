package sim

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"trustseq/internal/core"
	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

func plan(t testing.TB, p *model.Problem) *core.Plan {
	t.Helper()
	pl, err := core.Synthesize(p)
	if err != nil {
		t.Fatalf("Synthesize(%s) = %v", p.Name, err)
	}
	if !pl.Feasible {
		t.Fatalf("%s infeasible", p.Name)
	}
	return pl
}

func run(t testing.TB, pl *core.Plan, opts Options) *Result {
	t.Helper()
	res, err := Run(pl, opts)
	if err != nil {
		t.Fatalf("Run(%s) = %v", pl.Problem.Name, err)
	}
	return res
}

// An all-honest Example 1 run completes, satisfies everyone, leaves the
// intermediaries empty and hits zero faults — across many seeds (the
// network reorders messages; the protocol must not care).
func TestHonestExample1ManySeeds(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example1())
	for seed := int64(0); seed < 25; seed++ {
		res := run(t, pl, Options{Seed: seed, Jitter: 5})
		if !res.Completed() {
			t.Fatalf("seed %d: not completed:\n%s", seed, res.Summary())
		}
		if len(res.Faults) != 0 {
			t.Fatalf("seed %d: faults: %v", seed, res.Faults)
		}
		for _, id := range []model.PartyID{paperex.Consumer, paperex.Broker, paperex.Producer} {
			if !res.AcceptableTo(id) {
				t.Errorf("seed %d: final state unacceptable to %s", seed, id)
			}
		}
		for _, id := range []model.PartyID{paperex.Trusted1, paperex.Trusted2} {
			if !res.TrustedNeutral(id) {
				t.Errorf("seed %d: %s not neutral: %v", seed, id, res.Balances[id])
			}
		}
		// Consumer ends with the document, broker with its margin.
		if res.Balances[paperex.Consumer].Items[paperex.Doc] != 1 {
			t.Errorf("seed %d: consumer lacks the document", seed)
		}
		if res.Balances[paperex.Broker].Cash != paperex.RetailPrice {
			// Broker started with $80 (its needed capital), spent 80,
			// earned 100: ends with 100.
			t.Errorf("seed %d: broker cash = %v", seed, res.Balances[paperex.Broker].Cash)
		}
	}
}

// All feasible fixtures complete honestly, including the persona and
// indemnified variants.
func TestHonestAllFeasibleExamples(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"example1", "example2-variant1", "example2-indemnified"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pl := plan(t, paperex.All()[name])
			for seed := int64(0); seed < 10; seed++ {
				res := run(t, pl, Options{Seed: seed, Jitter: 4})
				if !res.Completed() {
					t.Fatalf("seed %d: incomplete:\n%s", seed, res.Summary())
				}
				for _, pa := range pl.Problem.Parties {
					if pa.IsTrusted() {
						if !res.TrustedNeutral(pa.ID) {
							t.Errorf("seed %d: %s not neutral", seed, pa.ID)
						}
						continue
					}
					if !res.AcceptableTo(pa.ID) {
						t.Errorf("seed %d: unacceptable to %s:\n%s", seed, pa.ID, res.Summary())
					}
				}
			}
		})
	}
}

// E11: single defectors. Whatever single principal defects at whatever
// point, every honest party keeps per-exchange asset integrity, and the
// trusted components unwind.
func TestSingleDefectorProtectsHonestParties(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"example1", "example2-indemnified"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pl := plan(t, paperex.All()[name])
			principals := make([]model.PartyID, 0)
			maxSteps := make(map[model.PartyID]int)
			for _, st := range pl.Steps {
				if st.Kind == core.StepDeposit || st.Kind == core.StepIndemnityPost {
					maxSteps[st.From]++
				}
			}
			for _, pa := range pl.Problem.Parties {
				if !pa.IsTrusted() {
					principals = append(principals, pa.ID)
				}
			}
			for _, defector := range principals {
				for k := 0; k <= maxSteps[defector]; k++ {
					res := run(t, pl, Options{
						Seed:      int64(k),
						Defectors: map[model.PartyID]int{defector: k},
					})
					for _, id := range principals {
						if id == defector {
							continue
						}
						if !res.AssetsSafeFor(id) {
							t.Errorf("defector %s after %d steps: %s lost assets:\n%s",
								defector, k, id, res.Summary())
						}
					}
					// Honest trusted components never retain assets.
					for _, pa := range pl.Problem.Parties {
						if !pa.IsTrusted() {
							continue
						}
						if q, ok := pl.Problem.PersonaOf(pa.ID); ok && q == defector {
							continue // corrupted persona may retain
						}
						if !res.TrustedNeutral(pa.ID) {
							t.Errorf("defector %s after %d steps: %s retained %v",
								defector, k, pa.ID, res.Balances[pa.ID])
						}
					}
				}
			}
		})
	}
}

// A fully silent defecting broker in Example 1 leaves consumer and
// producer exactly at the status quo (full refunds).
func TestSilentBrokerRefundsEveryone(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example1())
	res := run(t, pl, Options{Defectors: map[model.PartyID]int{paperex.Broker: 0}})
	if res.Completed() {
		t.Fatalf("exchange completed despite silent broker")
	}
	if got := res.Balances[paperex.Consumer].Cash; got != paperex.RetailPrice {
		t.Errorf("consumer cash = %v, want full refund %v", got, paperex.RetailPrice)
	}
	if res.Balances[paperex.Producer].Items[paperex.Doc] != 1 {
		t.Errorf("producer did not get the document back: %v", res.Balances[paperex.Producer])
	}
	if !res.AcceptableTo(paperex.Consumer) || !res.AcceptableTo(paperex.Producer) {
		t.Errorf("refunded parties not in acceptable state")
	}
}

// Section 6's punch line: when Broker1 defects after the consumer paid
// for document 1, the consumer receives Broker1's forfeited collateral
// (the price of document 2) on top of its refund.
func TestIndemnityForfeitCompensatesConsumer(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example2Indemnified())
	// Broker1's steps: collateral post, then its purchase deposit, then
	// its sale deposit. Defect right after posting the collateral.
	res := run(t, pl, Options{Defectors: map[model.PartyID]int{paperex.Broker1: 1}})
	if res.Completed() {
		t.Fatalf("exchange completed despite defecting broker1")
	}
	payout := model.Pay(paperex.Trusted1, paperex.Consumer, 100)
	if !res.State.Has(payout) {
		t.Fatalf("collateral not forfeited to consumer:\n%s", res.Summary())
	}
	if !res.AssetsSafeFor(paperex.Consumer) {
		t.Errorf("consumer assets unsafe:\n%s", res.Summary())
	}
	// The consumer's conjunction-level outcome is also acceptable: either
	// both documents or doc2 plus the penalty.
	if !res.AcceptableTo(paperex.Consumer) {
		t.Errorf("consumer outcome unacceptable:\n%s", res.Summary())
	}
	// Broker1 paid for its defection.
	if res.Balances[paperex.Broker1].Cash >= 180 {
		t.Errorf("broker1 did not lose its collateral: %v", res.Balances[paperex.Broker1])
	}
}

// Trusting a defector has consequences: in variant 1, source1 trusts
// broker1; when broker1 defects as the persona trustee after receiving
// the document, source1 loses it. The simulator must show exactly this
// breach — and no breach for parties that did NOT extend direct trust.
func TestDefectingPersonaTrusteeHarmsOnlyTruster(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example2Variant1())
	res := run(t, pl, Options{Defectors: map[model.PartyID]int{paperex.Broker1: 0}})
	if res.Completed() {
		t.Fatalf("completed despite defecting persona trustee")
	}
	// Source1 handed its document to broker1 (as trusted2) and lost it.
	if res.AssetsSafeFor(paperex.Source1) {
		t.Errorf("source1 unexpectedly protected — direct trust should carry risk:\n%s", res.Summary())
	}
	// Parties that relied only on independent intermediaries stay whole.
	for _, id := range []model.PartyID{paperex.Consumer, paperex.Broker2, paperex.Source2} {
		if !res.AssetsSafeFor(id) {
			t.Errorf("%s lost assets despite independent intermediaries:\n%s", id, res.Summary())
		}
	}
}

// Deterministic: same seed, same trace length and balances.
func TestDeterminism(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example2Indemnified())
	a := run(t, pl, Options{Seed: 42, Jitter: 7})
	b := run(t, pl, Options{Seed: 42, Jitter: 7})
	if a.Messages != b.Messages || a.Duration != b.Duration {
		t.Fatalf("nondeterministic: %d/%d msgs, %d/%d ticks", a.Messages, b.Messages, a.Duration, b.Duration)
	}
	if !a.State.Equal(b.State) {
		t.Fatalf("states differ across identical runs")
	}
}

// Money and documents are conserved in every run, including defections
// (the Run function audits internally; this exercises it across shapes).
func TestConservationAcrossShapes(t *testing.T) {
	t.Parallel()
	problems := []*model.Problem{
		gen.Chain(0, 50), gen.Chain(2, 100), gen.Chain(4, 200),
	}
	for _, p := range problems {
		pl := plan(t, p)
		for seed := int64(0); seed < 5; seed++ {
			res := run(t, pl, Options{Seed: seed, Jitter: 3})
			if !res.Completed() {
				t.Errorf("%s seed %d incomplete", p.Name, seed)
			}
		}
		// And with the middle party silent.
		if len(p.Exchanges) >= 4 {
			defector := p.Exchanges[2].Principal
			res := run(t, pl, Options{Defectors: map[model.PartyID]int{defector: 0}})
			for _, pa := range p.Parties {
				if pa.IsTrusted() || pa.ID == defector {
					continue
				}
				if !res.AssetsSafeFor(pa.ID) {
					t.Errorf("%s: honest %s lost assets with %s silent", p.Name, pa.ID, defector)
				}
			}
		}
	}
}

// The plan's notify structure reaches the simulator: a run of Example 1
// must include both notifications.
func TestNotificationsObserved(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example1())
	res := run(t, pl, Options{})
	for _, n := range []model.Action{
		model.Notify(paperex.Trusted1, paperex.Broker),
		model.Notify(paperex.Trusted2, paperex.Broker),
	} {
		if !res.State.Has(n) {
			t.Errorf("missing %v in simulated state", n)
		}
	}
}

func TestRunRejectsInfeasiblePlan(t *testing.T) {
	t.Parallel()
	pl, err := core.Synthesize(paperex.Example2())
	if err != nil {
		t.Fatalf("Synthesize = %v", err)
	}
	if _, err := Run(pl, Options{}); err == nil {
		t.Fatalf("Run accepted an infeasible plan")
	}
}

// A transfer the problem does not define fails closed at send: the
// typed error, no debit and nothing queued. Sends name action-table
// slots, so what the problem does not define is a slot that is no
// transfer: a notify, one past the table, and -1.
func TestSendTransferUndefinedFailsClosed(t *testing.T) {
	t.Parallel()
	rs, err := setupRun(plan(t, paperex.Example1()), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := rs.net
	tab := net.table
	opening := rs.book.String()
	net.ctx.self, net.ctx.slot = paperex.Trusted1, net.lookup(paperex.Trusted1)
	for _, s := range []int32{tab.Notify(0), int32(tab.Len()), -1} {
		if err := net.ctx.sendTransfer(s); !errors.Is(err, ErrUndefinedTransfer) {
			t.Errorf("sendTransfer(%d) = %v, want ErrUndefinedTransfer", s, err)
		}
	}
	if got := rs.book.String(); got != opening {
		t.Errorf("undefined transfers moved assets:\n%s\nwant\n%s", got, opening)
	}
	if n := net.q.len(); n != 0 {
		t.Errorf("undefined transfers queued %d messages", n)
	}
}

// A delivered action the problem does not define fails the run's
// assembly instead of dropping out of the State.
func TestAssembleRejectsUndefinedAction(t *testing.T) {
	t.Parallel()
	rs, err := setupRun(plan(t, paperex.Example1()), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	net := rs.net
	m := Message{From: paperex.Trusted1, To: paperex.Producer, Kind: MsgNotify,
		Action: model.Notify(paperex.Trusted1, paperex.Producer), to: net.lookup(paperex.Producer), slot: -1}
	if s, ok := net.table.Slot(m.Action); ok {
		t.Fatalf("%v has slot %d; no exchange joins them", m.Action, s)
	}
	net.trace = append(net.trace, m)
	var foreign *model.ForeignActionError
	if _, err := rs.assemble(); !errors.As(err, &foreign) {
		t.Fatalf("assemble = %v, want a *model.ForeignActionError", err)
	}
}

// A message carries its action's slot and its receiver's party slot
// beside the IDs and the Action it renders: pin today's 152 bytes so
// the message cannot grow.
func TestMessageSize(t *testing.T) {
	t.Parallel()
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Message{}); n > 152 {
		t.Fatalf("Message is %d bytes, want at most 152", n)
	}
}

func TestMsgKindString(t *testing.T) {
	t.Parallel()
	if MsgTransfer.String() != "transfer" || MsgNotify.String() != "notify" || MsgTimer.String() != "timer" {
		t.Fatalf("MsgKind strings wrong")
	}
}

func TestRenderTrace(t *testing.T) {
	t.Parallel()
	pl := plan(t, paperex.Example1())
	res := run(t, pl, Options{Seed: 1})
	_ = res
	// Render from a real run by re-running with direct network access.
	msgs := []Message{
		{At: 2, From: "c", To: "t1", Kind: MsgTransfer, Action: model.Pay("c", "t1", 100)},
		{At: 4, From: "t1", To: "b", Kind: MsgNotify, Action: model.Notify("t1", "b")},
		{At: 6, From: "t1", To: "c", Kind: MsgTransfer, Action: model.Pay("c", "t1", 100).Compensation()},
		{At: 8, From: "t1", To: "c", Kind: MsgNotify, Tag: "posted:0", Action: model.Notify("t1", "c")},
	}
	out := RenderTrace(msgs)
	for _, want := range []string{"t=2", "──$100──▶ t1", "──notify──▶ b", "refund $100", "control:posted:0"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}
