package petri

import "testing"

// Distinct markings must never merge in a markingArena, even when their
// 64-bit hashes collide (exercised directly with a forged collision).
func TestMarkingSetExactness(t *testing.T) {
	t.Parallel()
	s := &markingArena{}
	s.reset(3)
	if _, fresh := s.add([]int32{1, 2, 3}); !fresh {
		t.Fatal("first add of a should be new")
	}
	if _, fresh := s.add([]int32{1, 2, 3}); fresh {
		t.Fatal("equal marking b should be a duplicate")
	}
	if _, fresh := s.add([]int32{3, 2, 1}); !fresh {
		t.Fatal("distinct marking c should be new")
	}
	if s.count != 2 {
		t.Fatalf("count = %d, want 2", s.count)
	}
	// Simulate a hash collision: store x, then forge its recorded hash and
	// table slot to match y's. add(y) must see through the collision via
	// exact equality, keep both markings, and tally one collision.
	forged := &markingArena{}
	forged.reset(1)
	forged.add([]int32{7})
	y := []int32{9}
	forged.hashes[0] = hash32(y)
	for i := range forged.table {
		forged.table[i] = 0
	}
	forged.table[hash32(y)&forged.mask] = 1
	if _, fresh := forged.add(y); !fresh {
		t.Fatal("y must be added despite colliding with x's entry")
	}
	if _, fresh := forged.add(y); fresh {
		t.Fatal("second add of y must report duplicate")
	}
	if forged.count != 2 {
		t.Fatalf("forged count = %d, want 2", forged.count)
	}
	if forged.collisions != 1 {
		t.Fatalf("forged collisions = %d, want 1", forged.collisions)
	}
}
