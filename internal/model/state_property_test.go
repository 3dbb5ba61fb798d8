package model_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// stateCorpus is every paper fixture, a problem whose deposits, post and
// payout coincide as values, and a sample of every generator family.
func stateCorpus() map[string]*model.Problem {
	out := paperex.All()
	coinciding := paperex.Example2()
	coinciding.Indemnities = []model.IndemnityOffer{{
		By: paperex.Broker1, Covers: paperex.Example2S1Provide, Via: paperex.Trusted2, Amount: 80,
	}}
	out["example2-coinciding"] = coinciding
	out["pair"] = gen.Pair(10)
	out["chain-3"] = gen.Chain(3, 30)
	out["star-3"] = gen.Star([]model.Money{20, 30, 20})
	out["parallel-3"] = gen.Parallel(3, 10)
	out["population-4"] = gen.Population(4, 2, 10)
	out["universal-example2"] = paperex.UniversalTrust(paperex.Example2())
	for seed := int64(0); seed < 6; seed++ {
		out[fmt.Sprintf("random-%d", seed)] = gen.Random(rand.New(rand.NewSource(seed)), gen.Options{
			Consumers: 2, Brokers: 2, Producers: 2, MaxPrice: 30, DirectTrustProb: 0.25,
		})
	}
	return out
}

// vocabulary lists the actions the problem defines, from the
// specification rather than the table: each exchange's deposits and
// receipts, each indemnity offer's post and payout, the compensation of
// every one of them, and the notify a trusted component sends the
// principal of each of its exchanges.
func vocabulary(p *model.Problem) map[model.Action]bool {
	v := make(map[model.Action]bool)
	transfer := func(a model.Action) {
		v[a] = true
		v[a.Compensation()] = true
	}
	for _, e := range p.Exchanges {
		for _, a := range model.DepositActions(e) {
			transfer(a)
		}
		for _, a := range model.ReceiptActions(e) {
			transfer(a)
		}
		v[model.Notify(e.Trusted, e.Principal)] = true
	}
	for _, off := range p.Indemnities {
		amount := off.Amount
		if amount == 0 {
			amount = model.RequiredIndemnity(p, off.Covers)
		}
		transfer(model.Pay(off.By, off.Via, amount))
		transfer(model.Pay(off.Via, p.Exchanges[off.Covers].Principal, amount))
	}
	return v
}

// foreignTo returns actions near the vocabulary that it does not hold:
// a pay of another amount, a give of another item, a transfer the other
// way round or to a party the problem does not name, and a reversed
// notify.
func foreignTo(v map[model.Action]bool) []model.Action {
	var out []model.Action
	for a := range v {
		var near []model.Action
		if a.IsTransfer() {
			b := a
			b.Inverse = false
			more, other, ghost := b, b, b
			if b.Kind == model.ActionPay {
				more.Amount++
			} else {
				more.Item += "'"
			}
			other.From, other.To = b.To, b.From
			ghost.To = "ghost"
			near = append(near, more, other, ghost)
		} else {
			near = append(near, model.Notify(a.To, a.From), model.Notify(a.From, "ghost"))
		}
		for _, f := range near {
			if !v[f] {
				out = append(out, f)
			}
		}
	}
	return sorted(out)
}

func sorted(actions []model.Action) []model.Action {
	sort.Slice(actions, func(i, j int) bool { return actions[i].String() < actions[j].String() })
	return actions
}

// oracleString renders a map set as State.String does.
func oracleString(m map[model.Action]bool) string {
	parts := make([]string, 0, len(m))
	for a := range m {
		parts = append(parts, a.String())
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// oracleDelta is p's signed asset flow over a map set: received minus
// relinquished, compensations flowing back.
func oracleDelta(m map[model.Action]bool, p model.PartyID) (model.Money, map[model.ItemID]int) {
	var cash model.Money
	items := make(map[model.ItemID]int)
	for a := range m {
		if !a.IsTransfer() {
			continue
		}
		sign := 0
		switch p {
		case a.Receiver():
			sign = +1
		case a.Mover():
			sign = -1
		default:
			continue
		}
		if a.Kind == model.ActionPay {
			cash += model.Money(sign) * a.Amount
			continue
		}
		items[a.Item] += sign
		if items[a.Item] == 0 {
			delete(items, a.Item)
		}
	}
	return cash, items
}

// A State holds exactly the set a map of actions would, restricted to
// the problem's actions: random sequences of the problem's actions and
// foreign ones applied to both agree on Add's errors, Has, Len, Equal,
// String and Delta.
func TestStateMatchesMapOracle(t *testing.T) {
	t.Parallel()
	for name, p := range stateCorpus() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := model.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			tab := c.ActionTable()
			vocab := vocabulary(p)
			if tab.Len() != len(vocab) {
				t.Fatalf("table has %d slots, the problem defines %d actions", tab.Len(), len(vocab))
			}
			for s := 0; s < tab.Len(); s++ {
				if a := tab.Action(s); !vocab[a] {
					t.Fatalf("slot %d holds %v, which the problem does not define", s, a)
				}
			}
			defined := sorted(slicesOf(vocab))
			foreign := foreignTo(vocab)
			all := append(append([]model.Action(nil), defined...), foreign...)
			parties := []model.PartyID{"ghost"}
			for _, pa := range p.Parties {
				parties = append(parties, pa.ID)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			for trial := 0; trial < 8; trial++ {
				s := tab.NewState()
				m := make(map[model.Action]bool)
				steps := 1 + rng.Intn(2*len(defined))
				for step := 0; step < steps; step++ {
					a := defined[rng.Intn(len(defined))]
					if len(foreign) > 0 && rng.Intn(4) == 0 {
						a = foreign[rng.Intn(len(foreign))]
					}
					err := s.Add(a)
					var fe *model.ForeignActionError
					switch {
					case !vocab[a]:
						if !errors.As(err, &fe) || fe.Action != a {
							t.Fatalf("Add(foreign %v) = %v, want a *ForeignActionError", a, err)
						}
					case m[a]:
						if err == nil || errors.As(err, &fe) {
							t.Fatalf("Add(repeated %v) = %v, want a duplicate error", a, err)
						}
					case err != nil:
						t.Fatalf("Add(%v) = %v", a, err)
					default:
						m[a] = true
					}
				}
				checkAgainstOracle(t, c, s, m, all, parties, rng)
			}
		})
	}
}

func slicesOf(v map[model.Action]bool) []model.Action {
	out := make([]model.Action, 0, len(v))
	for a := range v {
		out = append(out, a)
	}
	return out
}

func checkAgainstOracle(t *testing.T, p *model.Compiled, s model.State, m map[model.Action]bool,
	all []model.Action, parties []model.PartyID, rng *rand.Rand) {
	t.Helper()
	for _, a := range all {
		if s.Has(a) != m[a] {
			t.Fatalf("Has(%v) = %v, oracle %v", a, s.Has(a), m[a])
		}
	}
	if s.Len() != len(m) {
		t.Fatalf("Len = %d, oracle %d", s.Len(), len(m))
	}
	if got, want := s.String(), oracleString(m); got != want {
		t.Fatalf("String = %s, oracle %s", got, want)
	}
	for _, id := range parties {
		cash, items := s.Delta(id)
		wantCash, wantItems := oracleDelta(m, id)
		if cash != wantCash || !maps.Equal(items, wantItems) {
			t.Fatalf("Delta(%s) = %v %v, oracle %v %v", id, cash, items, wantCash, wantItems)
		}
	}
	held := slicesOf(m)
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	if same := model.NewState(p, held...); !s.Equal(same) || !same.Equal(s) || !s.Equal(s.Clone()) {
		t.Fatalf("%v and the same actions in another order are not Equal", s)
	}
	if len(held) > 0 {
		if fewer := model.NewState(p, held[1:]...); s.Equal(fewer) || fewer.Equal(s) {
			t.Fatalf("%v Equal to itself without %v", s, held[0])
		}
	}
}
