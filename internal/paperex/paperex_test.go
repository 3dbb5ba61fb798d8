package paperex

import (
	"testing"

	"trustseq/internal/model"
)

// Every fixture validates.
func TestAllFixturesValid(t *testing.T) {
	t.Parallel()
	for name, p := range All() {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if _, err := model.Compile(p); err != nil {
				t.Fatalf("Validate = %v", err)
			}
		})
	}
}

func TestExample1Indices(t *testing.T) {
	t.Parallel()
	p := Example1()
	if len(p.Exchanges) != Example1ExchangeCount {
		t.Fatalf("exchanges = %d", len(p.Exchanges))
	}
	if e := p.Exchanges[Example1SaleIdx]; e.Principal != Broker || e.Trusted != Trusted1 {
		t.Errorf("sale index wrong: %v", e)
	}
	if e := p.Exchanges[Example1PurchaseIdx]; e.Principal != Broker || e.Trusted != Trusted2 {
		t.Errorf("purchase index wrong: %v", e)
	}
}

func TestExample2Indices(t *testing.T) {
	t.Parallel()
	p := Example2()
	checks := map[int]struct {
		principal model.PartyID
		trusted   model.PartyID
	}{
		Example2ConsumerDoc1: {Consumer, Trusted1},
		Example2B1Sale:       {Broker1, Trusted1},
		Example2B1Purchase:   {Broker1, Trusted2},
		Example2S1Provide:    {Source1, Trusted2},
		Example2ConsumerDoc2: {Consumer, Trusted3},
		Example2B2Sale:       {Broker2, Trusted3},
		Example2B2Purchase:   {Broker2, Trusted4},
		Example2S2Provide:    {Source2, Trusted4},
	}
	for idx, want := range checks {
		e := p.Exchanges[idx]
		if e.Principal != want.principal || e.Trusted != want.trusted {
			t.Errorf("index %d: got (%s,%s), want (%s,%s)",
				idx, e.Principal, e.Trusted, want.principal, want.trusted)
		}
	}
}

func TestFigure7Prices(t *testing.T) {
	t.Parallel()
	p := Figure7()
	want := map[int]model.Money{
		Figure7ConsumerDoc1: 10,
		Figure7ConsumerDoc2: 20,
		Figure7ConsumerDoc3: 30,
	}
	for idx, price := range want {
		if got := p.Exchanges[idx].Gives.Amount; got != price {
			t.Errorf("index %d: price %v, want %v", idx, got, price)
		}
		if p.Exchanges[idx].Principal != Consumer {
			t.Errorf("index %d: principal %s", idx, p.Exchanges[idx].Principal)
		}
	}
}

func TestVariantsDifferOnlyInTrust(t *testing.T) {
	t.Parallel()
	v1, v2 := Example2Variant1(), Example2Variant2()
	if len(v1.DirectTrust) != 1 || len(v2.DirectTrust) != 1 {
		t.Fatalf("trust declarations: %v / %v", v1.DirectTrust, v2.DirectTrust)
	}
	if v1.DirectTrust[0] != (model.TrustDecl{Truster: Source1, Trustee: Broker1}) {
		t.Errorf("variant1 trust = %v", v1.DirectTrust[0])
	}
	if v2.DirectTrust[0] != (model.TrustDecl{Truster: Broker1, Trustee: Source1}) {
		t.Errorf("variant2 trust = %v", v2.DirectTrust[0])
	}
}

func TestUniversalTrustRewiring(t *testing.T) {
	t.Parallel()
	p := UniversalTrust(Example2())
	trusted := 0
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			trusted++
		}
	}
	if trusted != 1 {
		t.Fatalf("trusted components = %d, want 1", trusted)
	}
	for i, e := range p.Exchanges {
		if e.Trusted != "u" {
			t.Errorf("exchange %d still routed via %s", i, e.Trusted)
		}
	}
	if _, err := model.Compile(p); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	// The original is untouched.
	if Example2().Exchanges[0].Trusted != Trusted1 {
		t.Fatalf("UniversalTrust mutated its input")
	}
}

func TestPoorBrokerEndowment(t *testing.T) {
	t.Parallel()
	p := PoorBroker()
	b, ok := model.MustCompile(p).Party(Broker)
	if !ok || !b.LimitedFunds || b.Endowment != 0 {
		t.Fatalf("broker = %+v", b)
	}
}

func TestFixturesAreIndependent(t *testing.T) {
	t.Parallel()
	a, b := Example1(), Example1()
	a.Exchanges[0].Gives = model.Cash(1)
	if b.Exchanges[0].Gives.Amount != RetailPrice {
		t.Fatalf("fixtures share state")
	}
}
