package petri

import "sort"

// This file is the compiled execution layer of the net: transitions
// flattened into sorted arc arrays, markings packed into one int32 slab
// addressed by index, and an open-addressing seen-table over that slab.
// The exploration loop in petri.go runs entirely against these forms —
// no map lookups and no per-marking allocations — while the public
// map-based Transition/Marking API stays the authoring surface.
//
// Token counts and arc weights are stored as int32. Encode rejects
// problems whose money would not fit (see TokenOverflowError); a net
// built by hand must keep its counts below 2³¹ itself.

// arc is one compiled transition arc, sorted by place.
type arc struct {
	place int32
	w     int32
}

// ctrans is a compiled transition: its In/Out maps flattened to sorted
// arc slices sharing one backing slab per net.
type ctrans struct {
	in  []arc
	out []arc
}

// compile builds (or returns) the net's compiled transitions. It caches
// into the net, so it must run on a single goroutine before the net is
// shared — Encode calls it while it still owns the net.
func (n *Net) compile() []ctrans {
	if n.ct != nil {
		return n.ct
	}
	total := 0
	for _, t := range n.trans {
		total += len(t.In) + len(t.Out)
	}
	// Exactly-sized slab: later appends never reallocate, so the arc
	// slices taken below stay valid.
	slab := make([]arc, 0, total)
	ct := make([]ctrans, len(n.trans))
	for i, t := range n.trans {
		start := len(slab)
		for p, w := range t.In {
			slab = append(slab, arc{place: int32(p), w: int32(w)})
		}
		in := slab[start:]
		sort.Slice(in, func(a, b int) bool { return in[a].place < in[b].place })
		start = len(slab)
		for p, w := range t.Out {
			slab = append(slab, arc{place: int32(p), w: int32(w)})
		}
		out := slab[start:]
		sort.Slice(out, func(a, b int) bool { return out[a].place < out[b].place })
		ct[i] = ctrans{in: in, out: out}
	}
	n.ct = ct
	return ct
}

// enabled32 reports whether a transition with the given input arcs can
// fire from the packed marking m.
func enabled32(m []int32, in []arc) bool {
	for _, a := range in {
		if m[a.place] < a.w {
			return false
		}
	}
	return true
}

// fire32 fires t from the packed marking m, writing the successor into
// dst (len = places). The caller has already checked enabled32.
func fire32(dst, m []int32, t *ctrans) {
	copy(dst, m)
	for _, a := range t.in {
		dst[a.place] -= a.w
	}
	for _, a := range t.out {
		dst[a.place] += a.w
	}
}

// covers32 reports whether m ≥ target on every place target requires.
func covers32(m, target []int32) bool {
	for i, want := range target {
		if want > 0 && m[i] < want {
			return false
		}
	}
	return true
}

// hash32 is an FNV-1a 64-bit hash of a packed marking. Collisions are
// possible, so markingArena confirms every match with exact equality.
func hash32(m []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range m {
		h ^= uint64(int64(v))
		h *= prime64
	}
	return h
}

func eq32(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// packInto packs a Marking into int32 form, reusing dst's backing array.
func packInto(dst []int32, m Marking) []int32 {
	if cap(dst) < len(m) {
		dst = make([]int32, len(m))
	} else {
		dst = dst[:len(m)]
	}
	for i, v := range m {
		dst[i] = int32(v)
	}
	return dst
}

// markingArena is the seen-set of an exploration: every distinct
// marking lives packed in one int32 slab, addressed by insertion index,
// with an open-addressing table (1-based entries, 0 = empty) mapping
// hashes to indices. It replaces the map[uint64][]Marking bucket set —
// same exact-equality dedup, same collision tally, no per-marking
// allocations.
type markingArena struct {
	places int
	slab   []int32  // marking i occupies slab[i*places : (i+1)*places]
	hashes []uint64 // hash of marking i
	table  []int32  // open-addressing: index+1 of a marking, 0 = empty
	mask   uint64
	count  int
	// collisions counts inserted markings whose hash was already present
	// — the same "landed in a non-empty bucket" tally the bucketed set
	// kept, feeding the petri.collisions telemetry.
	collisions int
}

// reset prepares the arena for a fresh exploration over nets with the
// given place count, keeping the allocated capacity of previous runs.
func (a *markingArena) reset(places int) {
	a.places = places
	a.slab = a.slab[:0]
	a.hashes = a.hashes[:0]
	a.count = 0
	a.collisions = 0
	const initialSize = 1 << 10
	if cap(a.table) >= initialSize {
		a.table = a.table[:cap(a.table)]
		for i := range a.table {
			a.table[i] = 0
		}
	} else {
		a.table = make([]int32, initialSize)
	}
	a.mask = uint64(len(a.table) - 1)
}

// at returns marking i as a slice into the slab. The slice is valid for
// reading even across later adds: an append that grows the slab leaves
// the old backing array (and therefore the view) intact.
func (a *markingArena) at(i int32) []int32 {
	s := int(i) * a.places
	return a.slab[s : s+a.places]
}

// add inserts the packed marking (copying it into the slab), returning
// its index and whether it was absent.
func (a *markingArena) add(m []int32) (int32, bool) {
	h := hash32(m)
	i := h & a.mask
	sameHash := false
	for {
		e := a.table[i]
		if e == 0 {
			break
		}
		mi := e - 1
		if a.hashes[mi] == h {
			if eq32(a.at(mi), m) {
				return mi, false
			}
			sameHash = true
		}
		i = (i + 1) & a.mask
	}
	mi := int32(a.count)
	a.slab = append(a.slab, m...)
	a.hashes = append(a.hashes, h)
	a.table[i] = mi + 1
	a.count++
	if sameHash {
		a.collisions++
	}
	// Grow at 70% load so probe chains stay short.
	if uint64(a.count)*10 >= uint64(len(a.table))*7 {
		a.growTable()
	}
	return mi, true
}

func (a *markingArena) growTable() {
	size := len(a.table) * 2
	a.table = make([]int32, size)
	a.mask = uint64(size - 1)
	for mi := 0; mi < a.count; mi++ {
		i := a.hashes[mi] & a.mask
		for a.table[i] != 0 {
			i = (i + 1) & a.mask
		}
		a.table[i] = int32(mi) + 1
	}
}

// CoverScratch holds the reusable working state of a bounded
// coverability search: the marking arena, the BFS queue, and the packed
// initial/target/firing buffers. A zero value is ready to use; reusing
// one across calls (e.g. per sweep worker) makes repeat explorations
// allocate almost nothing. Not safe for concurrent use.
type CoverScratch struct {
	arena   markingArena
	queue   []int32
	fireBuf []int32
	init32  []int32
	tgt32   []int32
}

// NewCoverScratch returns an empty scratch.
func NewCoverScratch() *CoverScratch { return &CoverScratch{} }
