package sim

import (
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// tickDelays cycles timers across wheel levels 0–2 so the steady-state
// allocation check exercises slot placement and cascading, not just the
// bottom level.
var tickDelays = []Time{1, 2, 9, 65, 513}

// tickNode re-arms a timer on every delivery, keeping exactly one event
// pending forever. Timers skip the trace, the ledger hooks, and
// telemetry, so each step is a pure schedule+deliver cycle.
type tickNode struct {
	id    model.PartyID
	count int
}

func (tn *tickNode) ID() model.PartyID { return tn.id }
func (tn *tickNode) Init(ctx *Context) { ctx.SetTimer(1, "tick") }
func (tn *tickNode) OnMessage(ctx *Context, m Message) {
	tn.count++
	ctx.SetTimer(tickDelays[tn.count%len(tickDelays)], "tick")
}

// Scheduling and delivering a message must not allocate at steady
// state, under both queue implementations: the wheel recycles bucket
// arrays through its freelist and the heap retains its backing array,
// while delivery reuses the network's scratch Context.
func TestScheduleDeliverZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue func(n int) eventQueue
	}{
		{"wheel", newQueue},
		{"heap", newHeapQueue},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork(Config{Seed: 1, MaxMessages: 1 << 30, queue: tc.queue})
			node := &tickNode{id: "p"}
			net.AddNode(node)
			net.ctx.self = node.id
			node.Init(&net.ctx)
			// Warm the freelists and slice capacities.
			for i := 0; i < 4096; i++ {
				if more, err := net.step(); err != nil || !more {
					t.Fatalf("warmup step %d: more=%v err=%v", i, more, err)
				}
			}
			avg := testing.AllocsPerRun(10_000, func() {
				if more, err := net.step(); err != nil || !more {
					t.Fatalf("step: more=%v err=%v", more, err)
				}
			})
			if avg != 0 {
				t.Fatalf("schedule+deliver allocates %v allocs/op at steady state, want 0", avg)
			}
		})
	}
}

// escrowNode returns example 1's first trusted node holding every
// deposit of its first adjacent exchange and none of the rest, so the
// escrow checks below take both their whole and their missing path.
func escrowNode(t *testing.T) *TrustedNode {
	t.Helper()
	p := paperex.Example1()
	n := NewTrustedNode(p, paperex.Trusted1, 1000, true)
	if len(n.adjacent) < 2 {
		t.Fatalf("%s mediates %d exchanges, want ≥ 2", n.Self, len(n.adjacent))
	}
	for _, d := range n.t.Deposits(int(n.adjacent[0])) {
		n.received.add(d)
	}
	return n
}

// The escrow membership checks run on every transfer a trusted node
// receives and must not allocate: they walk the exchange's deposit row
// of the action table in place.
func TestEscrowChecksZeroAlloc(t *testing.T) {
	n := escrowNode(t)
	deposit := n.t.Deposits(int(n.adjacent[1]))[0]
	stray := deposit + int32(n.t.Transfers) // its refund is no deposit
	avg := testing.AllocsPerRun(1000, func() {
		for _, ei := range n.adjacent {
			n.exchangeWhole(ei)
		}
		if ei, ok := n.matchDeposit(deposit); !ok || ei != n.adjacent[1] {
			t.Fatalf("matchDeposit(%d) = %d, %v", deposit, ei, ok)
		}
		if _, ok := n.matchDeposit(stray); ok {
			t.Fatalf("matchDeposit matched a stray transfer")
		}
	})
	if avg != 0 {
		t.Fatalf("exchangeWhole+matchDeposit allocate %v allocs/op, want 0", avg)
	}
}

// The escrow checks agree with their definition over DepositActions on
// every trusted node of the chaos corpus: a transfer matches the first
// adjacent exchange listing it as a deposit, and an exchange is whole
// iff every deposit is held and none refunded.
func TestEscrowChecksMatchDepositActions(t *testing.T) {
	t.Parallel()
	for _, pl := range chaosCorpus(t) {
		p := pl.Problem
		tab := p.ActionTable()
		slot := func(a model.Action) int32 {
			s, ok := tab.Slot(a)
			if !ok {
				t.Fatalf("%s: deposit %v has no slot", p.Name, a)
			}
			return int32(s)
		}
		for _, pa := range p.Parties {
			if !pa.IsTrusted() {
				continue
			}
			n := NewTrustedNode(p, pa.ID, 1000, true)
			first := make(map[model.Action]int32)
			for _, ei := range n.adjacent {
				for _, d := range model.DepositActions(p.Exchanges[ei]) {
					if _, ok := first[d]; !ok {
						first[d] = ei
					}
				}
			}
			for d, want := range first {
				if got, ok := n.matchDeposit(slot(d)); !ok || got != want {
					t.Fatalf("%s/%s: matchDeposit(%v) = %d, %v; want %d", p.Name, pa.ID, d, got, ok, want)
				}
			}
			for _, ei := range n.adjacent {
				deps := model.DepositActions(p.Exchanges[ei])
				if len(deps) == 0 {
					continue
				}
				if n.exchangeWhole(ei) || n.allDeposits(ei, n.received.has) {
					t.Fatalf("%s/%s: exchange %d whole before any deposit", p.Name, pa.ID, ei)
				}
				for _, d := range deps {
					n.received.add(slot(d))
				}
				if !n.exchangeWhole(ei) || !n.allDeposits(ei, n.received.has) {
					t.Fatalf("%s/%s: exchange %d not whole with every deposit held", p.Name, pa.ID, ei)
				}
				n.refunded.add(slot(deps[len(deps)-1]))
				if n.exchangeWhole(ei) || !n.allDeposits(ei, n.received.has) {
					t.Fatalf("%s/%s: exchange %d whole after a refund", p.Name, pa.ID, ei)
				}
			}
		}
	}
}
