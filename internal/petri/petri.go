package petri

import (
	"fmt"

	"trustseq/internal/obs"
)

// PlaceID indexes a place.
type PlaceID int

// Net is an immutable place/transition net.
type Net struct {
	placeNames []string
	placeIndex map[string]PlaceID
	trans      []Transition

	// ct caches the compiled transitions (sorted flat arcs); built
	// lazily by compile, dropped by AddTransition.
	ct []ctrans
}

// Transition consumes In tokens and produces Out tokens.
type Transition struct {
	Name string
	In   map[PlaceID]int
	Out  map[PlaceID]int
}

// NewNet returns an empty net.
func NewNet() *Net {
	return &Net{placeIndex: make(map[string]PlaceID)}
}

// Place interns a named place and returns its ID.
func (n *Net) Place(name string) PlaceID {
	if id, ok := n.placeIndex[name]; ok {
		return id
	}
	id := PlaceID(len(n.placeNames))
	n.placeNames = append(n.placeNames, name)
	n.placeIndex[name] = id
	return id
}

// PlaceName returns the interned name.
func (n *Net) PlaceName(id PlaceID) string {
	if int(id) < 0 || int(id) >= len(n.placeNames) {
		return fmt.Sprintf("place(%d)", int(id))
	}
	return n.placeNames[id]
}

// Places returns the number of places.
func (n *Net) Places() int { return len(n.placeNames) }

// AddTransition registers a transition. Maps are copied.
func (n *Net) AddTransition(name string, in, out map[PlaceID]int) {
	t := Transition{Name: name, In: make(map[PlaceID]int, len(in)), Out: make(map[PlaceID]int, len(out))}
	for p, w := range in {
		if w > 0 {
			t.In[p] = w
		}
	}
	for p, w := range out {
		if w > 0 {
			t.Out[p] = w
		}
	}
	n.trans = append(n.trans, t)
	n.ct = nil // mutation invalidates the compiled arcs
}

// Transitions returns the transition count.
func (n *Net) Transitions() int { return len(n.trans) }

// TransitionName returns a transition's name.
func (n *Net) TransitionName(i int) string { return n.trans[i].Name }

// Marking is a token assignment, one count per place.
type Marking []int

// NewMarking returns the zero marking for the net.
func (n *Net) NewMarking() Marking { return make(Marking, n.Places()) }

// ReachabilityResult reports a bounded exploration.
type ReachabilityResult struct {
	Found    bool
	Explored int
	Capped   bool // the state budget was exhausted before a verdict
}

// coverObs carries the telemetry of one coverability exploration: a
// span over the whole search with one "petri.level" event per BFS
// level (frontier size, states explored, hash-bucket collisions). The
// zero value (nil telemetry) disables everything.
type coverObs struct {
	on   bool
	tel  *obs.Telemetry
	span obs.Span
}

func startCoverObs(n *Net, budget int, tel *obs.Telemetry) coverObs {
	c := coverObs{on: tel.Enabled(), tel: tel}
	if c.on {
		c.span = tel.Trace().StartSpan("petri.cover",
			obs.Int("places", n.Places()),
			obs.Int("transitions", len(n.trans)),
			obs.Int("budget", budget))
	}
	return c
}

func (c coverObs) level(level, frontier, explored, collisions int) {
	if !c.on {
		return
	}
	c.span.Event("petri.level",
		obs.Int("level", level),
		obs.Int("frontier", frontier),
		obs.Int("explored", explored),
		obs.Int("collisions", collisions))
}

func (c coverObs) finish(res ReachabilityResult, levels, collisions int) {
	if !c.on {
		return
	}
	reg := c.tel.Reg()
	reg.Counter("petri.states").Add(int64(res.Explored))
	reg.Counter("petri.collisions").Add(int64(collisions))
	if res.Found {
		reg.Counter("petri.found").Inc()
	}
	if res.Capped {
		reg.Counter("petri.capped").Inc()
	}
	reg.Histogram("petri.levels", obs.CountBuckets()).Observe(float64(levels))
	c.span.End(
		obs.Bool("found", res.Found),
		obs.Bool("capped", res.Capped),
		obs.Int("explored", res.Explored),
		obs.Int("levels", levels),
		obs.Int("collisions", collisions))
}

// ReachableCover explores the exact state space breadth-first, up to
// maxStates markings (≤ 0 means 1<<20), looking for one covering
// target. The search runs entirely on the compiled arc/arena layer:
// markings live packed in one slab, the queue holds arena indices, and
// firing writes into a single reused buffer. sc supplies reusable
// scratch buffers (nil allocates fresh ones). Telemetry adds a
// "petri.cover" span with one "petri.level" event per BFS level
// (frontier size, states explored, hash-bucket collisions) and the
// petri.* counters; it only tracks where each level ends, so it never
// changes the FIFO order, the verdict or the explored count. Nil
// telemetry costs a boolean check per level.
func (n *Net) ReachableCover(initial, target Marking, maxStates int, tel *obs.Telemetry, sc *CoverScratch) ReachabilityResult {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	if sc == nil {
		sc = &CoverScratch{}
	}
	co := startCoverObs(n, maxStates, tel)
	ct := n.compile()
	sc.arena.reset(len(initial))
	sc.init32 = packInto(sc.init32, initial)
	sc.tgt32 = packInto(sc.tgt32, target)
	sc.fireBuf = packInto(sc.fireBuf, initial) // sized; content overwritten
	root, _ := sc.arena.add(sc.init32)
	queue := append(sc.queue[:0], root)
	res := ReachabilityResult{}
	level, inLevel, nextLevel := 0, 1, 0
	for head := 0; head < len(queue); head++ {
		m := sc.arena.at(queue[head])
		res.Explored++
		if covers32(m, sc.tgt32) {
			res.Found = true
			break
		}
		if res.Explored >= maxStates {
			res.Capped = true
			break
		}
		for ti := range ct {
			t := &ct[ti]
			if !enabled32(m, t.in) {
				continue
			}
			fire32(sc.fireBuf, m, t)
			if ni, fresh := sc.arena.add(sc.fireBuf); fresh {
				queue = append(queue, ni)
				nextLevel++
			}
		}
		inLevel--
		if inLevel == 0 {
			co.level(level, nextLevel, res.Explored, sc.arena.collisions)
			level++
			inLevel, nextLevel = nextLevel, 0
		}
	}
	sc.queue = queue
	co.finish(res, level, sc.arena.collisions)
	return res
}
