package petri

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/search"
)

// A tiny producer/consumer net: p produces tokens, c consumes two at a
// time. Exercises the compiled firing, enabledness and cover checks.
func TestFireAndEnabled(t *testing.T) {
	t.Parallel()
	n := NewNet()
	a, b := n.Place("a"), n.Place("b")
	n.AddTransition("move2", map[PlaceID]int{a: 2}, map[PlaceID]int{b: 1})
	move2 := &n.compile()[0]
	m := []int32{3, 0}
	if !enabled32(m, move2.in) {
		t.Fatalf("move2 not enabled at a=3")
	}
	m2 := make([]int32, 2)
	fire32(m2, m, move2)
	if m2[a] != 1 || m2[b] != 1 {
		t.Fatalf("after fire: %v", m2)
	}
	if m[a] != 3 {
		t.Fatalf("fire mutated its source marking: %v", m)
	}
	if enabled32(m2, move2.in) {
		t.Fatalf("move2 enabled at a=1")
	}
	if !covers32(m2, []int32{0, 1}) || covers32(m2, []int32{2, 0}) {
		t.Fatalf("covers32 wrong at %v", m2)
	}
}

// An unbounded generator makes the state space infinite: the exact
// search finds a target a few firings away and reports Capped, never a
// false verdict, for one beyond its budget.
func TestCoverableUnboundedGenerator(t *testing.T) {
	t.Parallel()
	n := NewNet()
	src, sink := n.Place("src"), n.Place("sink")
	n.AddTransition("gen", map[PlaceID]int{src: 1}, map[PlaceID]int{src: 1, sink: 1})
	init := n.NewMarking()
	init[src] = 1
	near := n.NewMarking()
	near[sink] = 5
	if res := n.ReachableCover(init, near, 1000, nil, nil); !res.Found || res.Explored != 6 {
		t.Fatalf("near target: %+v", res)
	}
	far := n.NewMarking()
	far[sink] = 1_000_000
	exact := n.ReachableCover(init, far, 1000, nil, nil)
	if exact.Found {
		t.Fatalf("exact search claims coverage it cannot reach in budget")
	}
	if !exact.Capped {
		t.Fatalf("exact search should hit its cap")
	}
}

func TestCoverableNegative(t *testing.T) {
	t.Parallel()
	n := NewNet()
	a, b := n.Place("a"), n.Place("b")
	n.AddTransition("step", map[PlaceID]int{a: 1}, map[PlaceID]int{b: 1})
	init := n.NewMarking()
	init[a] = 2
	target := n.NewMarking()
	target[b] = 3 // only 2 tokens exist
	if res := n.ReachableCover(init, target, 10_000, nil, nil); res.Found || res.Capped {
		t.Fatalf("exact search wrong: %+v", res)
	}
}

// E10 (Petri leg): the encoding of every paper example is completable
// exactly when the asset-mode exhaustive search finds a completing
// execution (the Section 7.4 correspondence at the asset level).
func TestEncodingMatchesAssetSearchOnExamples(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			enc, err := FromProblem(p)
			if err != nil {
				t.Fatalf("FromProblem = %v", err)
			}
			res := enc.Completable(1 << 20)
			if res.Capped {
				t.Fatalf("state budget exhausted")
			}
			v, err := search.Feasible(p, search.ModeAssets)
			if err != nil {
				t.Fatalf("search = %v", err)
			}
			if res.Found != v.Feasible {
				t.Errorf("petri completable=%v, asset search=%v", res.Found, v.Feasible)
			}
		})
	}
}

// The same correspondence on random problems.
func TestEncodingMatchesAssetSearchRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 15; i++ {
		p := gen.Random(rng, gen.Options{Consumers: 1, Brokers: 2, Producers: 2, MaxPrice: 8})
		if len(p.Exchanges) > 8 {
			continue
		}
		enc, err := FromProblem(p)
		if err != nil {
			t.Fatalf("FromProblem = %v", err)
		}
		res := enc.Completable(1 << 21)
		if res.Capped {
			continue // budget-bound instances are inconclusive
		}
		v, err := search.Feasible(p, search.ModeAssets)
		if err != nil {
			t.Fatalf("search = %v", err)
		}
		if res.Found != v.Feasible {
			t.Errorf("instance %d: petri=%v search=%v", i, res.Found, v.Feasible)
		}
	}
}

// The poor broker's funding shortfall appears as token shortage.
func TestPoorBrokerNotCompletable(t *testing.T) {
	t.Parallel()
	enc, err := FromProblem(paperex.PoorBroker())
	if err != nil {
		t.Fatalf("FromProblem = %v", err)
	}
	if res := enc.Completable(1 << 20); res.Found {
		t.Fatalf("poor broker completable despite empty pockets")
	}
	// Funding the broker restores completability.
	p := paperex.PoorBroker()
	for i := range p.Parties {
		if p.Parties[i].ID == paperex.Broker {
			p.Parties[i].Endowment = paperex.WholesalePrice
		}
	}
	enc2, err := FromProblem(p)
	if err != nil {
		t.Fatalf("FromProblem = %v", err)
	}
	if res := enc2.Completable(1 << 20); !res.Found {
		t.Fatalf("funded broker not completable")
	}
}

func TestFromProblemRejectsInvalid(t *testing.T) {
	t.Parallel()
	p := paperex.Example1()
	p.Exchanges[0].Principal = "ghost"
	if _, err := FromProblem(p); err == nil {
		t.Fatalf("invalid problem accepted")
	}
}

func TestPlaceAndTransitionNames(t *testing.T) {
	t.Parallel()
	n := NewNet()
	a := n.Place("alpha")
	if n.PlaceName(a) != "alpha" || n.PlaceName(PlaceID(99)) != "place(99)" {
		t.Errorf("PlaceName wrong")
	}
	if n.Place("alpha") != a || n.Places() != 1 {
		t.Errorf("Place does not intern: %d places", n.Places())
	}
	n.AddTransition("t", nil, map[PlaceID]int{a: 1})
	if n.Transitions() != 1 || n.TransitionName(0) != "t" {
		t.Errorf("transition accessors wrong")
	}
}

// Net encoding structure sanity for Example 1: 4 deposit transitions + 2
// completion transitions; initial tokens match the endowments.
func TestEncodingStructureExample1(t *testing.T) {
	t.Parallel()
	enc, err := FromProblem(paperex.Example1())
	if err != nil {
		t.Fatalf("FromProblem = %v", err)
	}
	if got := enc.Net.Transitions(); got != 6 {
		t.Errorf("transitions = %d, want 6", got)
	}
	cash := enc.Initial[enc.Net.Place("cash:"+string(paperex.Consumer))]
	if cash != int(paperex.RetailPrice) {
		t.Errorf("consumer tokens = %d", cash)
	}
	doc := enc.Initial[enc.Net.Place("item:"+string(paperex.Producer)+":"+string(paperex.Doc))]
	if doc != 1 {
		t.Errorf("producer document tokens = %d", doc)
	}
}

// twoProducerBuy has one consumer pay price to each of two producers,
// each sale through its own trusted intermediary, so the consumer
// starts with 2×price money tokens.
func twoProducerBuy(price model.Money) *model.Problem {
	p := &model.Problem{Name: "two-producer-buy", Parties: []model.Party{
		{ID: "c", Role: model.RoleConsumer},
	}}
	for _, i := range []string{"1", "2"} {
		pr, tr, doc := model.PartyID("p"+i), model.PartyID("t"+i), model.ItemID("d"+i)
		p.Parties = append(p.Parties,
			model.Party{ID: pr, Role: model.RoleProducer},
			model.Party{ID: tr, Role: model.RoleTrusted})
		p.Exchanges = append(p.Exchanges,
			model.Exchange{Principal: "c", Trusted: tr, Gives: model.Cash(price), Gets: model.Goods(doc)},
			model.Exchange{Principal: pr, Trusted: tr, Gives: model.Goods(doc), Gets: model.Cash(price)})
	}
	return p
}

// Token counts are int32: a problem whose money would wrap must be
// rejected with a typed error rather than encoded into a net that
// silently reports "not completable", while the largest price that
// fits still agrees with the asset search.
func TestFromProblemRejectsTokenOverflow(t *testing.T) {
	t.Parallel()
	_, err := FromProblem(twoProducerBuy(1 << 30))
	var over *TokenOverflowError
	if !errors.As(err, &over) {
		t.Fatalf("FromProblem($2^30 twice) = %v, want *TokenOverflowError", err)
	}
	if over.Tokens != 1<<31 {
		t.Errorf("overflow reports %d tokens, want %d", over.Tokens, int64(1)<<31)
	}

	p := twoProducerBuy(1<<30 - 1)
	enc, err := FromProblem(p)
	if err != nil {
		t.Fatalf("FromProblem at the bound: %v", err)
	}
	v, err := search.Feasible(p, search.ModeAssets)
	if err != nil {
		t.Fatal(err)
	}
	if res := enc.Completable(1 << 16); !res.Found || !v.Feasible {
		t.Errorf("at the bound: petri %+v, asset search feasible=%v", res, v.Feasible)
	}

	// A limited-funds principal can promise more than it holds: the
	// deposit arc itself overflows even though the initial tokens fit.
	p = twoProducerBuy(1 << 31)
	p.Parties[0].LimitedFunds = true
	if _, err := FromProblem(p); !errors.As(err, &over) || !strings.Contains(over.What, "arc") {
		t.Fatalf("FromProblem(limited funds, $2^31 arcs) = %v, want an arc overflow", err)
	}
}
