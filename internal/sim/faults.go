package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"trustseq/internal/model"
)

// FaultPlan composes the deterministic fault injectors the network
// applies on top of its baseline latency model. The zero value (and a
// nil plan) injects nothing. Every decision the plan triggers is drawn
// from the network's seeded RNG in event order, so a faulted run is as
// reproducible as a clean one: same seed, same plan, same trace.
//
// Faults respect the paper's scoping: the value-transfer layer is
// reliable (transfers and recall demands are never lost, only delayed),
// while control-plane notifications may be lost, duplicated or delayed
// arbitrarily — exactly the failure the Section 5 deadline machinery
// and the notify retry layer must absorb.
type FaultPlan struct {
	// DupRate is the probability in [0,1) that a notification is
	// delivered twice, each copy with its own latency.
	DupRate float64

	// ReorderRate is the probability in [0,1) that a message picks up
	// extra latency in [1, ReorderBound], reordering it against its
	// neighbors while keeping delivery bounded.
	ReorderRate  float64
	ReorderBound Time

	// SpikeRate is the probability in [0,1) of a latency spike of
	// SpikeTicks — long enough to push a delivery past a deadline.
	SpikeRate  float64
	SpikeTicks Time

	// Partitions cut individual links for a window of virtual time.
	// While a link is cut, notifications on it are lost; transfers and
	// recall demands are deferred until the partition heals.
	Partitions []Partition

	// Crashes schedule crash-restarts of trusted intermediaries: at the
	// crash tick the node loses its volatile state, and on restart it
	// restores from its durable escrow log and resumes — unwinding with
	// compensations if its deadline expired while it was down.
	Crashes []CrashEvent
}

// Partition cuts the link between two parties (both directions) from
// tick From until tick Until, when it heals.
type Partition struct {
	A, B model.PartyID
	From Time
	// Until is the heal tick (exclusive end of the window).
	Until Time
}

// covers reports whether the partition cuts the from→to link at time t.
func (pt Partition) covers(t Time, from, to model.PartyID) bool {
	if t < pt.From || t >= pt.Until {
		return false
	}
	return (pt.A == from && pt.B == to) || (pt.A == to && pt.B == from)
}

// CrashEvent schedules one crash-restart of a trusted node: it crashes
// at At (losing volatile state) and restarts at At+Downtime (restoring
// from its durable log). Messages that would be processed while the
// node is down are lost (notifications and timers) or deferred to the
// restart (transfers and recall demands).
type CrashEvent struct {
	Node     model.PartyID
	At       Time
	Downtime Time
}

// Enabled reports whether the plan injects anything.
func (f *FaultPlan) Enabled() bool {
	if f == nil {
		return false
	}
	return f.DupRate > 0 || f.ReorderRate > 0 || f.SpikeRate > 0 ||
		len(f.Partitions) > 0 || len(f.Crashes) > 0
}

// Validate checks the plan against a problem: rates in [0,1), positive
// windows, partition endpoints that exist, and crashes that target
// trusted nodes with non-overlapping windows per node.
func (f *FaultPlan) Validate(p *model.Compiled) error {
	if f == nil {
		return nil
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"DupRate", f.DupRate}, {"ReorderRate", f.ReorderRate}, {"SpikeRate", f.SpikeRate}} {
		if r.v < 0 || r.v >= 1 {
			return fmt.Errorf("sim: fault %s = %v outside [0,1)", r.name, r.v)
		}
	}
	if f.ReorderRate > 0 && f.ReorderBound <= 0 {
		return fmt.Errorf("sim: ReorderRate set without a positive ReorderBound")
	}
	if f.SpikeRate > 0 && f.SpikeTicks <= 0 {
		return fmt.Errorf("sim: SpikeRate set without positive SpikeTicks")
	}
	parties := make(map[model.PartyID]bool, len(p.Parties))
	trusted := make(map[model.PartyID]bool)
	for _, pa := range p.Parties {
		parties[pa.ID] = true
		if pa.IsTrusted() {
			trusted[pa.ID] = true
		}
	}
	for i, pt := range f.Partitions {
		if pt.A == pt.B {
			return fmt.Errorf("sim: partition %d cuts a self-link (%s)", i, pt.A)
		}
		if !parties[pt.A] || !parties[pt.B] {
			return fmt.Errorf("sim: partition %d names unknown party (%s, %s)", i, pt.A, pt.B)
		}
		if pt.From < 0 || pt.Until <= pt.From {
			return fmt.Errorf("sim: partition %d window [%d, %d) is empty", i, pt.From, pt.Until)
		}
	}
	windows := make(map[model.PartyID][]CrashEvent)
	for i, ev := range f.Crashes {
		if !trusted[ev.Node] {
			return fmt.Errorf("sim: crash %d targets %s, which is not a trusted node", i, ev.Node)
		}
		if ev.At < 0 || ev.Downtime <= 0 {
			return fmt.Errorf("sim: crash %d of %s has empty window (at %d, downtime %d)", i, ev.Node, ev.At, ev.Downtime)
		}
		windows[ev.Node] = append(windows[ev.Node], ev)
	}
	for node, evs := range windows {
		sort.Slice(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		for i := 1; i < len(evs); i++ {
			if evs[i].At < evs[i-1].At+evs[i-1].Downtime {
				return fmt.Errorf("sim: overlapping crash windows for %s", node)
			}
		}
	}
	return nil
}

// FaultMenu selects which fault families a sampled plan may draw from.
// Drop covers the pre-existing notify-loss injector (Options.
// NotifyDropRate); the rest map to FaultPlan fields.
type FaultMenu struct {
	Dup, Reorder, Spike, Partition, Crash, Drop bool
}

// AllFaults enables every family.
func AllFaults() FaultMenu {
	return FaultMenu{Dup: true, Reorder: true, Spike: true, Partition: true, Crash: true, Drop: true}
}

// Any reports whether at least one family is enabled.
func (m FaultMenu) Any() bool {
	return m.Dup || m.Reorder || m.Spike || m.Partition || m.Crash || m.Drop
}

// String renders the enabled families in flag syntax.
func (m FaultMenu) String() string {
	var on []string
	for _, f := range []struct {
		name string
		set  bool
	}{{"dup", m.Dup}, {"reorder", m.Reorder}, {"spike", m.Spike},
		{"partition", m.Partition}, {"crash", m.Crash}, {"drop", m.Drop}} {
		if f.set {
			on = append(on, f.name)
		}
	}
	if len(on) == 0 {
		return "none"
	}
	if len(on) == 6 {
		return "all"
	}
	return strings.Join(on, ",")
}

// ParseFaultMenu parses a -faults flag value: "all", "none", or a
// comma-separated subset of dup, reorder, spike, partition, crash, drop.
func ParseFaultMenu(spec string) (FaultMenu, error) {
	var m FaultMenu
	switch spec {
	case "", "none":
		return m, nil
	case "all":
		return AllFaults(), nil
	}
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(part) {
		case "dup":
			m.Dup = true
		case "reorder":
			m.Reorder = true
		case "spike":
			m.Spike = true
		case "partition":
			m.Partition = true
		case "crash":
			m.Crash = true
		case "drop":
			m.Drop = true
		case "":
		default:
			return m, fmt.Errorf("sim: unknown fault family %q (want dup, reorder, spike, partition, crash, drop, all or none)", strings.TrimSpace(part))
		}
	}
	return m, nil
}

// SampleFaultPlan draws a bounded random fault plan for a problem from
// the enabled families. The plan is a pure function of the RNG stream,
// so a caller that seeds rng deterministically gets a reproducible
// plan. Deadline scales the time-domain faults (spikes, partition
// windows, crash windows) so they actually straddle the escrow expiry.
func SampleFaultPlan(rng *rand.Rand, p *model.Compiled, menu FaultMenu, deadline Time) *FaultPlan {
	if deadline < 8 {
		deadline = 8
	}
	f := &FaultPlan{}
	if menu.Dup {
		f.DupRate = 0.1 + 0.35*rng.Float64()
	}
	if menu.Reorder {
		f.ReorderRate = 0.2 + 0.4*rng.Float64()
		f.ReorderBound = 2 + Time(rng.Int63n(10))
	}
	if menu.Spike {
		f.SpikeRate = 0.05 + 0.1*rng.Float64()
		f.SpikeTicks = deadline/4 + Time(rng.Int63n(int64(deadline/2)+1))
	}
	if menu.Partition && len(p.Parties) >= 2 {
		for k := rng.Intn(2) + 1; k > 0; k-- {
			i := rng.Intn(len(p.Parties))
			j := rng.Intn(len(p.Parties))
			if i == j {
				continue
			}
			start := Time(rng.Int63n(int64(deadline)))
			f.Partitions = append(f.Partitions, Partition{
				A:     p.Parties[i].ID,
				B:     p.Parties[j].ID,
				From:  start,
				Until: start + 1 + Time(rng.Int63n(int64(deadline/2)+1)),
			})
		}
	}
	if menu.Crash {
		var trusted []model.PartyID
		for _, pa := range p.Parties {
			if pa.IsTrusted() {
				trusted = append(trusted, pa.ID)
			}
		}
		if len(trusted) > 0 {
			lastEnd := make(map[model.PartyID]Time)
			for k := rng.Intn(2) + 1; k > 0; k-- {
				node := trusted[rng.Intn(len(trusted))]
				at := 1 + Time(rng.Int63n(int64(deadline)))
				down := 1 + Time(rng.Int63n(int64(deadline/3)+1))
				if at < lastEnd[node] {
					at = lastEnd[node] + 1
				}
				lastEnd[node] = at + down
				f.Crashes = append(f.Crashes, CrashEvent{Node: node, At: at, Downtime: down})
			}
		}
	}
	return f
}

// ChaosOptions assembles a full chaos run configuration: a sampled
// fault plan plus jitter, drop rate and the notify retry layer, all
// derived from rng. Deadline ≤ 0 samples one in [40, 200) so some runs
// complete and others are forced through the unwind. Callers add
// Defectors and Obs on top.
func ChaosOptions(rng *rand.Rand, p *model.Compiled, menu FaultMenu, seed int64, deadline Time) Options {
	if deadline <= 0 {
		deadline = 40 + Time(rng.Int63n(160))
	}
	opts := Options{
		Seed:          seed,
		Jitter:        2 + Time(rng.Int63n(6)),
		Deadline:      deadline,
		Faults:        SampleFaultPlan(rng, p, menu, deadline),
		NotifyRetries: 1 + rng.Intn(3),
	}
	if menu.Drop {
		opts.NotifyDropRate = 0.6 * rng.Float64()
	}
	return opts
}
