package safety

import (
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

func exec1(t testing.TB) *Exec {
	t.Helper()
	p := paperex.Example1()
	return NewExec(model.MustCompile(p))
}

func TestApplyMovesAssets(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	pay := model.Pay(paperex.Consumer, paperex.Trusted1, 100)
	if err := x.Apply(pay); err != nil {
		t.Fatalf("Apply = %v", err)
	}
	if x.Holding(paperex.Consumer).Cash != 0 {
		t.Errorf("consumer cash = %v", x.Holding(paperex.Consumer).Cash)
	}
	if x.Holding(paperex.Trusted1).Cash != 100 {
		t.Errorf("t1 cash = %v", x.Holding(paperex.Trusted1).Cash)
	}
	// The consumer cannot pay twice.
	if err := x.Apply(pay); err == nil {
		t.Fatalf("double pay accepted")
	}
	// The compensation flows back.
	if err := x.Apply(pay.Compensation()); err != nil {
		t.Fatalf("Apply compensation = %v", err)
	}
	if x.Holding(paperex.Consumer).Cash != 100 {
		t.Errorf("refund missing")
	}
}

func TestApplyRejectsUnfundable(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	// The broker holds no document yet.
	if err := x.Apply(model.Give(paperex.Broker, paperex.Trusted1, paperex.Doc)); err == nil {
		t.Fatalf("unfunded give accepted")
	}
	if err := x.Apply(model.Pay("ghost", paperex.Trusted1, 1)); err == nil {
		t.Fatalf("unknown mover accepted")
	}
}

func TestDepositedDeliveredFlags(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	if x.Deposited(0) || x.Delivered(0) {
		t.Fatalf("flags set on empty state")
	}
	x.MustApply(model.Pay(paperex.Consumer, paperex.Trusted1, 100))
	if !x.Deposited(0) {
		t.Fatalf("Deposited false after deposit")
	}
	if !x.DepositAttempted(0) {
		t.Fatalf("DepositAttempted false")
	}
	x.MustApply(model.Pay(paperex.Consumer, paperex.Trusted1, 100).Compensation())
	if x.Deposited(0) {
		t.Fatalf("Deposited true after compensation")
	}
	if !x.DepositAttempted(0) {
		t.Fatalf("DepositAttempted should survive compensation")
	}
}

func TestTrustedReadyOneSided(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	x.MustApply(model.Pay(paperex.Consumer, paperex.Trusted1, 100))
	if x.TrustedReady(paperex.Trusted1) {
		t.Fatalf("t1 ready with one side")
	}
}

func TestTrustedCompleteAndRefund(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	// Producer deposits the document, consumer pays... producer side is
	// at t2. Drive t2 to completion.
	x.MustApply(model.Give(paperex.Producer, paperex.Trusted2, paperex.Doc))
	x.MustApply(model.Pay(paperex.Broker, paperex.Trusted2, 80))
	if !x.TrustedReady(paperex.Trusted2) {
		t.Fatalf("t2 not ready with both deposits")
	}
	if err := x.CompleteTrusted(paperex.Trusted2); err != nil {
		t.Fatalf("CompleteTrusted = %v", err)
	}
	if !x.Delivered(2) || !x.Delivered(3) {
		t.Fatalf("deliveries not recorded")
	}
	if x.Holding(paperex.Broker).Items[paperex.Doc] != 1 {
		t.Fatalf("broker lacks the document after completion")
	}
	// Refund pass on t1 after a lone consumer deposit.
	x.MustApply(model.Pay(paperex.Consumer, paperex.Trusted1, 100))
	if err := x.RefundTrusted(paperex.Trusted1); err != nil {
		t.Fatalf("RefundTrusted = %v", err)
	}
	if x.Holding(paperex.Consumer).Cash != 100 {
		t.Fatalf("consumer not refunded")
	}
}

func TestSafeForStatusQuo(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	for _, id := range []model.PartyID{paperex.Consumer, paperex.Broker, paperex.Producer} {
		if !SafeFor(x, id) {
			t.Errorf("%s unsafe at status quo", id)
		}
		if !AssetSafe(x, id) {
			t.Errorf("%s asset-unsafe at status quo", id)
		}
	}
}

// After the consumer deposits, it stays safe (refundable escrow); after
// a hypothetical forced completion of a partial exchange it would not
// be. AssetSafe and SafeFor agree on the single-document example.
func TestSafetyAfterDeposit(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	x.MustApply(model.Pay(paperex.Consumer, paperex.Trusted1, 100))
	if !SafeFor(x, paperex.Consumer) || !AssetSafe(x, paperex.Consumer) {
		t.Fatalf("consumer unsafe with refundable escrow")
	}
}

// The broker is conjunction-unsafe after an unmatched purchase unless it
// can finish the sale: with the consumer's money escrowed, SafeFor finds
// the completing continuation.
func TestBrokerRescueThroughOwnMoves(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	x.MustApply(model.Pay(paperex.Consumer, paperex.Trusted1, 100))
	x.MustApply(model.Give(paperex.Producer, paperex.Trusted2, paperex.Doc))
	x.MustApply(model.Pay(paperex.Broker, paperex.Trusted2, 80))
	// Forced completion gives the broker the document; its own move then
	// sells it via t1, so it is safe under both semantics.
	if !SafeFor(x, paperex.Broker) {
		t.Errorf("broker conjunction-unsafe despite rescue path")
	}
	if !AssetSafe(x, paperex.Broker) {
		t.Errorf("broker asset-unsafe despite rescue path")
	}
	// Without the consumer's money, the broker has no sale and is
	// conjunction-unsafe — but still asset-safe (the purchase itself
	// completes and per-exchange integrity holds).
	y := exec1(t)
	y.MustApply(model.Give(paperex.Producer, paperex.Trusted2, paperex.Doc))
	y.MustApply(model.Pay(paperex.Broker, paperex.Trusted2, 80))
	if SafeFor(y, paperex.Broker) {
		t.Errorf("broker conjunction-safe without a buyer")
	}
	if !AssetSafe(y, paperex.Broker) {
		t.Errorf("broker asset-unsafe for a completing purchase")
	}
}

func TestAllSafeAndCompleted(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	if !AllSafe(x) {
		t.Fatalf("AllSafe false at status quo")
	}
	if Completed(x) {
		t.Fatalf("Completed true at status quo")
	}
	// Drive the whole exchange.
	for _, a := range []model.Action{
		model.Pay(paperex.Consumer, paperex.Trusted1, 100),
		model.Give(paperex.Producer, paperex.Trusted2, paperex.Doc),
		model.Pay(paperex.Broker, paperex.Trusted2, 80),
	} {
		x.MustApply(a)
	}
	if err := x.ForceCompletionsAll(); err != nil {
		t.Fatalf("ForceCompletionsAll = %v", err)
	}
	x.MustApply(model.Give(paperex.Broker, paperex.Trusted1, paperex.Doc))
	if err := x.ForceCompletionsAll(); err != nil {
		t.Fatalf("ForceCompletionsAll = %v", err)
	}
	if !Completed(x) {
		t.Fatalf("not completed after full drive: %v", x.Snapshot())
	}
	if !AllSafe(x) {
		t.Fatalf("AllSafe false at completion")
	}
}

func TestEarlyWithdrawRequiresPersona(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	if err := x.EarlyWithdraw(2); err == nil {
		t.Fatalf("EarlyWithdraw allowed without persona")
	}
	// Variant 1 has broker1 as persona of t2.
	p := paperex.Example2Variant1()
	y := NewExec(model.MustCompile(p))
	y.MustApply(model.Give(paperex.Source1, paperex.Trusted2, paperex.Doc1))
	if err := y.EarlyWithdraw(paperex.Example2B1Purchase); err != nil {
		t.Fatalf("EarlyWithdraw = %v", err)
	}
	if y.Holding(paperex.Broker1).Items[paperex.Doc1] != 1 {
		t.Fatalf("broker1 lacks withdrawn document")
	}
	if !y.Delivered(paperex.Example2B1Purchase) {
		t.Fatalf("withdrawal not recorded as delivery")
	}
	// Source1 remains safe: the wind-down makes the trustee return or pay.
	if !AssetSafe(y, paperex.Source1) {
		t.Fatalf("source1 unsafe after trusted withdrawal")
	}
}

func TestFingerprintDistinguishesStates(t *testing.T) {
	t.Parallel()
	x := exec1(t)
	a := x.Fingerprint()
	x.MustApply(model.Pay(paperex.Consumer, paperex.Trusted1, 100))
	b := x.Fingerprint()
	if a == b {
		t.Fatalf("fingerprint unchanged by deposit")
	}
}

func TestIndemnityActions(t *testing.T) {
	t.Parallel()
	p := paperex.Example2Indemnified()
	tab := model.MustCompile(p).ActionTable()
	post := tab.Action(int(tab.Post[0]))
	if post.Amount != 100 || post.From != paperex.Broker1 || post.To != paperex.Trusted1 {
		t.Fatalf("post = %v", post)
	}
	payout := tab.Action(int(tab.Payout[0]))
	if payout.From != paperex.Trusted1 || payout.To != paperex.Consumer || payout.Amount != 100 {
		t.Fatalf("payout = %v", payout)
	}
}

func TestPartialDeposit(t *testing.T) {
	t.Parallel()
	// A mixed bundle deposit observed half-way.
	p := paperex.Example1()
	p.Exchanges[0].Gives = model.Cash(100).With("coupon")
	p.Exchanges[1].Gets = model.Cash(100).With("coupon")
	// Keep conservation: broker now receives the coupon too.
	x := NewExec(model.MustCompile(p))
	x.Holding(paperex.Consumer).Add(model.Goods("coupon"))
	x.MustApply(model.Pay(paperex.Consumer, paperex.Trusted1, 100))
	if !x.PartialDeposit(0) {
		t.Fatalf("PartialDeposit false with half the bundle in")
	}
	x.MustApply(model.Give(paperex.Consumer, paperex.Trusted1, "coupon"))
	if x.PartialDeposit(0) {
		t.Fatalf("PartialDeposit true with the full bundle in")
	}
}
