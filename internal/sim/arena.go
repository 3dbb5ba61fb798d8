package sim

// This file holds the slab-style working-state containers the nodes
// use instead of per-node maps. A paper-scale run never notices the
// difference; a million-principal run does: every TrustedNode used to
// carry five maps and every PrincipalNode three, so map headers and
// first-insert buckets dominated memory per principal. The
// replacements are zero-value-ready (no allocation until first use),
// reset in place for crash wipes, and sized to the node's degree — a
// handful of entries for paper problems, ~2× fan-out for a
// population broker. A run's setup carves every node's sets from a
// few plan-sized slabs (carve) rather than allocating them one node
// at a time; a set that outgrows its share reallocates on its own.

// slotSet is an open-addressing set of action-table slots that keeps
// its members in insertion order, the order a checkpoint writes them
// in. The zero value is an empty set.
type slotSet struct {
	keys []int32
	tab  []int32 // stores index+1 into keys; 0 = empty
}

// home returns the first probe position of slot s in a table of the
// given mask: a multiplicative hash, folded so the high bits count.
func home(s int32, mask uint32) uint32 {
	h := uint32(s) * 0x9e3779b1
	return (h ^ h>>16) & mask
}

// tableSize returns the probe-table size that holds n elements without
// regrowth, 0 for none.
func tableSize(n int) int {
	if n == 0 {
		return 0
	}
	size := 16
	for size*7 <= n*10 {
		size *= 2
	}
	return size
}

// carve sizes an empty set for n elements without regrowth, taking its
// arrays from the fronts of the zeroed slabs keys and tab, and returns
// the rest of both. Both arrays are capped, so a set that outgrows them
// reallocates instead of writing into its neighbour's.
func (s *slotSet) carve(n int, keys, tab []int32) ([]int32, []int32) {
	size := tableSize(n)
	if size == 0 {
		return keys, tab
	}
	s.keys, s.tab = keys[:0:n], tab[:size:size]
	return keys[n:], tab[size:]
}

// add inserts slot v into the set; present elements are left alone.
func (s *slotSet) add(v int32) {
	if s.tab == nil {
		s.tab = make([]int32, 16)
	}
	mask := uint32(len(s.tab) - 1)
	for i := home(v, mask); ; i = (i + 1) & mask {
		e := s.tab[i]
		if e == 0 {
			s.keys = append(s.keys, v)
			s.tab[i] = int32(len(s.keys))
			if len(s.keys)*10 >= len(s.tab)*7 {
				s.grow()
			}
			return
		}
		if s.keys[e-1] == v {
			return
		}
	}
}

// has reports membership.
func (s *slotSet) has(v int32) bool {
	if s.tab == nil {
		return false
	}
	mask := uint32(len(s.tab) - 1)
	for i := home(v, mask); ; i = (i + 1) & mask {
		e := s.tab[i]
		if e == 0 {
			return false
		}
		if s.keys[e-1] == v {
			return true
		}
	}
}

func (s *slotSet) grow() {
	tab := make([]int32, len(s.tab)*2)
	mask := uint32(len(tab) - 1)
	for j, v := range s.keys {
		for i := home(v, mask); ; i = (i + 1) & mask {
			if tab[i] == 0 {
				tab[i] = int32(j) + 1
				break
			}
		}
	}
	s.tab = tab
}

// reset empties the set in place, keeping capacity — the crash wipe.
func (s *slotSet) reset() {
	s.keys = s.keys[:0]
	clear(s.tab)
}

// flagSet is a tiny index→bool association for per-exchange and
// per-offer flags. Keys are global exchange/offer indices, but a node
// only ever touches its own adjacent handful, so a linear-scanned pair
// of parallel slices beats both a map (allocation) and a dense slice
// (O(total exchanges) per node). The zero value is all-false.
type flagSet struct {
	idx []int32
	val []bool
}

// get reports the flag at index i, false when never set.
func (f *flagSet) get(i int32) bool {
	for j, x := range f.idx {
		if x == i {
			return f.val[j]
		}
	}
	return false
}

// set assigns the flag at index i.
func (f *flagSet) set(i int32, v bool) {
	for j, x := range f.idx {
		if x == i {
			f.val[j] = v
			return
		}
	}
	f.idx = append(f.idx, i)
	f.val = append(f.val, v)
}

// reset clears every flag in place, keeping capacity.
func (f *flagSet) reset() {
	f.idx = f.idx[:0]
	f.val = f.val[:0]
}
