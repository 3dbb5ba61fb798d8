package cluster

import (
	"math/bits"
	"sort"
)

// DefaultVNodes is the virtual-node count per member when a Ring or
// Node is built with VNodes <= 0. 64 points per member keeps the
// expected per-member load imbalance under a few percent for small
// clusters while the whole ring still fits in a cache line count that
// a binary search traverses in nanoseconds.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring over a member set. Build
// one with NewRing; membership changes produce a new Ring (the Node
// republishes it atomically). Two rings built from the same member set
// and vnode count are identical regardless of input order, so every
// node routes the same digest to the same owner.
type Ring struct {
	members []string // sorted, deduplicated
	points  []point  // sorted by hash, ties broken by member index
	vnodes  int
	version uint64
}

// point is one virtual node: a position on the 64-bit hash circle owned
// by members[member].
type point struct {
	hash   uint64
	member int32
}

// NewRing builds a ring from the member addresses with vnodes virtual
// nodes per member (DefaultVNodes when vnodes <= 0). Duplicate and
// empty addresses are dropped. A nil or empty member set yields an
// empty ring whose Owner reports ok=false.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		points:  make([]point, 0, len(uniq)*vnodes),
		vnodes:  vnodes,
	}
	for i, m := range uniq {
		base := hashString(m)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:   mix64(base ^ uint64(v)*0x9E3779B97F4A7C15),
				member: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
	v := hashString("ring-version")
	for _, m := range uniq {
		v = mix64(v ^ hashString(m))
	}
	r.version = mix64(v ^ uint64(vnodes))
	return r
}

// Owner maps a content digest to the member owning it: the first
// virtual node at or clockwise of the digest's position. ok is false
// only on an empty ring.
func (r *Ring) Owner(d [2]uint64) (string, bool) {
	if r == nil || len(r.points) == 0 {
		return "", false
	}
	h := keyPoint(d)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point owns the tail arc
	}
	return r.members[r.points[i].member], true
}

// Members returns the sorted member set (a copy).
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.members...)
}

// Contains reports whether addr is a ring member.
func (r *Ring) Contains(addr string) bool {
	if r == nil {
		return false
	}
	i := sort.SearchStrings(r.members, addr)
	return i < len(r.members) && r.members[i] == addr
}

// Len is the member count.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.members)
}

// Version is a digest of the member set (and vnode count): two nodes
// whose rings agree report the same version, so a mismatch is a cheap
// convergence probe for /v1/stats and the smoke tests.
func (r *Ring) Version() uint64 {
	if r == nil {
		return 0
	}
	return r.version
}

// keyPoint positions a [2]uint64 content digest on the hash circle.
// The service's digests are SHA-256 prefixes and already uniform, but
// the two words are folded through one more mix so structured test
// digests also spread.
func keyPoint(d [2]uint64) uint64 {
	return mix64(d[0] ^ bits.RotateLeft64(d[1], 31))
}

// hashString is FNV-1a 64.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x00000100000001b3
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
