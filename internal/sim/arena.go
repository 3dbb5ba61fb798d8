package sim

import "trustseq/internal/model"

// This file holds the slab-style working-state containers the nodes
// use instead of per-node maps. A paper-scale run never notices the
// difference; a million-principal run does: every TrustedNode used to
// carry five maps and every PrincipalNode three, so map headers and
// first-insert buckets dominated memory per principal. The
// replacements are zero-value-ready (no allocation until first use),
// reset in place for crash wipes, and sized to the node's degree — a
// handful of entries for paper problems, ~2× fan-out for a
// population broker.

// actionSet is an open-addressing set of model.Action, hashed by
// FNV-1a over the action's fields and compared with ==. The zero value
// is an empty set.
type actionSet struct {
	keys []model.Action
	tab  []int32 // stores index+1 into keys; 0 = empty
}

// hashAction folds every Action field through FNV-1a; a 0xff separator
// between the string fields keeps ("ab","c") distinct from ("a","bc").
func hashAction(a model.Action) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(a.Kind)
	h *= prime
	for i := 0; i < len(a.From); i++ {
		h ^= uint64(a.From[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < len(a.To); i++ {
		h ^= uint64(a.To[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	for i := 0; i < len(a.Item); i++ {
		h ^= uint64(a.Item[i])
		h *= prime
	}
	h ^= 0xff
	h *= prime
	h ^= uint64(a.Amount)
	h *= prime
	if a.Inverse {
		h ^= 1
		h *= prime
	}
	return h
}

// reserve sizes an empty set for n elements without regrowth.
func (s *actionSet) reserve(n int) {
	if n == 0 {
		return
	}
	size := 16
	for size*7 <= n*10 {
		size *= 2
	}
	s.keys = make([]model.Action, 0, n)
	s.tab = make([]int32, size)
}

// add inserts a into the set; present elements are left alone.
func (s *actionSet) add(a model.Action) {
	if s.tab == nil {
		s.tab = make([]int32, 16)
	}
	mask := uint64(len(s.tab) - 1)
	for i := hashAction(a) & mask; ; i = (i + 1) & mask {
		e := s.tab[i]
		if e == 0 {
			s.keys = append(s.keys, a)
			s.tab[i] = int32(len(s.keys))
			if len(s.keys)*10 >= len(s.tab)*7 {
				s.grow()
			}
			return
		}
		if s.keys[e-1] == a {
			return
		}
	}
}

// has reports membership.
func (s *actionSet) has(a model.Action) bool {
	if s.tab == nil {
		return false
	}
	mask := uint64(len(s.tab) - 1)
	for i := hashAction(a) & mask; ; i = (i + 1) & mask {
		e := s.tab[i]
		if e == 0 {
			return false
		}
		if s.keys[e-1] == a {
			return true
		}
	}
}

func (s *actionSet) grow() {
	tab := make([]int32, len(s.tab)*2)
	mask := uint64(len(tab) - 1)
	for j, a := range s.keys {
		for i := hashAction(a) & mask; ; i = (i + 1) & mask {
			if tab[i] == 0 {
				tab[i] = int32(j) + 1
				break
			}
		}
	}
	s.tab = tab
}

// reset empties the set in place, keeping capacity — the crash wipe.
func (s *actionSet) reset() {
	s.keys = s.keys[:0]
	for i := range s.tab {
		s.tab[i] = 0
	}
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
func (f *flagSet) get(i int) bool {
	for j, x := range f.idx {
		if x == int32(i) {
			return f.val[j]
		}
	}
	return false
}

// set assigns the flag at index i.
func (f *flagSet) set(i int, v bool) {
	for j, x := range f.idx {
		if x == int32(i) {
			f.val[j] = v
			return
		}
	}
	f.idx = append(f.idx, int32(i))
	f.val = append(f.val, v)
}

// reset clears every flag in place, keeping capacity.
func (f *flagSet) reset() {
	f.idx = f.idx[:0]
	f.val = f.val[:0]
}
