package vlog

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/bits"
)

// HashSize is the byte length of every hash in the log (SHA-256).
const HashSize = sha256.Size

// Hash is one SHA-256 digest: a leaf hash, an interior node, a Merkle
// root, or a chain head. The zero value is never a valid hash of
// anything this package produces (even the empty tree hashes the empty
// string), so it can safely mean "absent".
type Hash [HashSize]byte

// String renders the hash as lowercase hex, the wire form used in proof
// envelopes and the X-Trustd-Log-Root header.
func (h Hash) String() string {
	// Encoding into an array costs one allocation where
	// hex.EncodeToString costs two; this runs on every anchor header and
	// every hash of every served proof.
	var buf [2 * HashSize]byte
	hex.Encode(buf[:], h[:])
	return string(buf[:])
}

// ParseHash parses the 64-hex-character form String renders. It fails
// closed: anything but exactly 64 hex characters is rejected.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*HashSize {
		return h, fmt.Errorf("%w: hash must be %d hex characters, got %d", ErrMalformedProof, 2*HashSize, len(s))
	}
	for i := 0; i < HashSize; i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return Hash{}, fmt.Errorf("%w: hash has a non-hex character at offset %d", ErrMalformedProof, 2*i)
		}
		h[i] = hi<<4 | lo
	}
	return h, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Domain-separation prefixes (RFC 6962 §2.1 for leaves and nodes; the
// chain prefix is ours). Leaf and interior hashes must never collide:
// without the prefixes an attacker could present an interior node as a
// "leaf" and prove membership of data never appended.
const (
	leafPrefix  = 0x00
	nodePrefix  = 0x01
	chainPrefix = 0x02
)

// LeafHash computes the domain-separated hash of one record:
// SHA-256(0x00 || record).
func LeafHash(record []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(record)
	var out Hash
	h.Sum(out[:0])
	return out
}

// nodeHash combines two subtree roots: SHA-256(0x01 || left || right).
func nodeHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// chainHash extends the sequential hash chain:
// SHA-256(0x02 || prev || leaf).
func chainHash(prev, leaf Hash) Hash {
	h := sha256.New()
	h.Write([]byte{chainPrefix})
	h.Write(prev[:])
	h.Write(leaf[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// emptyRoot is the Merkle root of the empty log: SHA-256 of the empty
// string, per RFC 6962.
func emptyRoot() Hash { return sha256.Sum256(nil) }

// The error taxonomy. Every failure an appender or verifier can hit
// wraps one of these, so callers (trustseq verify-proof in particular)
// can classify without string matching. Verification is fail-closed:
// any condition not positively provable is an error.
var (
	// ErrIndexOutOfRange: a leaf index or tree size names data the log
	// (or the claimed tree) does not contain.
	ErrIndexOutOfRange = errors.New("vlog: index out of range")
	// ErrMalformedProof: a proof or envelope is structurally wrong —
	// bad lengths, bad hex, missing fields, unknown kind — before any
	// hashing happens.
	ErrMalformedProof = errors.New("vlog: malformed proof")
	// ErrProofInvalid: the proof hashes to something other than the
	// claimed root — evidence of truncation, bit-flips, reordering, or
	// an outright forgery.
	ErrProofInvalid = errors.New("vlog: proof does not verify")
	// ErrRootMismatch: a recomputed or claimed root disagrees with the
	// trusted root the caller supplied.
	ErrRootMismatch = errors.New("vlog: root mismatch")
	// ErrNotRetained: the log was built hash-only and cannot return
	// record bytes.
	ErrNotRetained = errors.New("vlog: record bytes not retained")
	// ErrBadSignature: the envelope's ed25519 signature does not verify
	// under the given public key.
	ErrBadSignature = errors.New("vlog: bad root signature")
)

// Log is an append-only, hash-chained, Merkle-ized event log. It keeps
// every complete-subtree hash (the RFC 9162 / tlog-tiles layout), so an
// append costs O(1) amortized hashes, and the root, any historical
// root, and every membership or consistency proof read O(log n) stored
// nodes plus at most O(log n) hashes along the tree's right spine. The
// stored nodes cost about two hashes per leaf.
//
// A Log is not safe for concurrent use; owners (sim.Result, the
// service) serialize access with their own locks.
type Log struct {
	// tree[h][j] is the root of the complete subtree over leaves
	// [j<<h, (j+1)<<h); tree[0] holds the leaf hashes. Level h+1 gains
	// a node each time level h completes a pair.
	tree [][]Hash
	// head is the hash-chain head: SHA-256(0x02 || previous head ||
	// leaf) over every append, the zero Hash for an empty log.
	head    Hash
	records [][]byte // retained record bytes, nil unless retaining
	retain  bool
}

// New returns an empty hash-only log: it serves proofs but cannot
// return record bytes (Record reports ErrNotRetained). The simulator
// uses this form — its trace already retains every record.
func New() *Log { return &Log{} }

// NewRetaining returns an empty log that additionally keeps each
// appended record, so proof envelopes can carry the record bytes. The
// service's per-daemon analysis log uses this form.
func NewRetaining() *Log { return &Log{retain: true} }

// Append adds one record and returns its index. The record bytes are
// hashed immediately (and copied only when the log retains records), so
// the caller may reuse the buffer.
func (l *Log) Append(record []byte) uint64 {
	leaf := LeafHash(record)
	i := l.Size()
	l.head = chainHash(l.head, leaf)
	if l.retain {
		l.records = append(l.records, append([]byte(nil), record...))
	}
	// Merge complete subtrees like a binary counter: each node that
	// lands at an odd position completes a pair, whose parent is the
	// next node one level up.
	node := leaf
	for h, j := 0, i; ; h, j = h+1, j>>1 {
		if h == len(l.tree) {
			l.tree = append(l.tree, nil)
		}
		l.tree[h] = append(l.tree[h], node)
		if j&1 == 0 {
			break
		}
		node = nodeHash(l.tree[h][j-1], node)
	}
	return i
}

// Size reports the number of appended records.
func (l *Log) Size() uint64 {
	if len(l.tree) == 0 {
		return 0
	}
	return uint64(len(l.tree[0]))
}

// Root returns the Merkle tree hash over everything appended so far
// (the RFC 6962 MTH; SHA-256 of the empty string for an empty log).
func (l *Log) Root() Hash {
	root, _ := l.RootAt(l.Size())
	return root
}

// RootAt returns the Merkle root of the first n records — the root a
// verifier holding an older view of this log would have recorded. n may
// be 0 (the empty-log root) through Size().
func (l *Log) RootAt(n uint64) (Hash, error) {
	if n > l.Size() {
		return Hash{}, fmt.Errorf("%w: root at %d of a %d-entry log", ErrIndexOutOfRange, n, l.Size())
	}
	if n == 0 {
		return emptyRoot(), nil
	}
	return l.rangeRoot(0, n), nil
}

// ChainHead returns the sequential hash-chain head after the last
// append (the zero Hash for an empty log). The chain is the cheap
// tamper-evidence primitive — any historical edit changes every later
// head — while the Merkle tree is what makes *selective* verification
// (one entry, or one prefix) possible without replaying the chain.
func (l *Log) ChainHead() Hash { return l.head }

// Leaf returns the leaf hash of entry i.
func (l *Log) Leaf(i uint64) (Hash, error) {
	if i >= l.Size() {
		return Hash{}, fmt.Errorf("%w: leaf %d of a %d-entry log", ErrIndexOutOfRange, i, l.Size())
	}
	return l.tree[0][i], nil
}

// Record returns the retained record bytes of entry i. Only logs built
// with NewRetaining can answer; the returned slice is the log's copy
// and must not be modified.
func (l *Log) Record(i uint64) ([]byte, error) {
	if i >= l.Size() {
		return nil, fmt.Errorf("%w: record %d of a %d-entry log", ErrIndexOutOfRange, i, l.Size())
	}
	if !l.retain {
		return nil, ErrNotRetained
	}
	return l.records[i], nil
}

// rangeRoot returns the RFC 6962 MTH of leaves [lo, hi) (lo < hi ≤
// Size). An aligned power-of-two range is one stored node; any other
// range splits at the largest power of two strictly less than its
// width, as the RFC's recursion does. Every range a root or proof asks
// for is a node of that recursion, so its left half is always aligned
// and only the right spine costs hashes.
func (l *Log) rangeRoot(lo, hi uint64) Hash {
	n := hi - lo
	if n&(n-1) == 0 && lo&(n-1) == 0 {
		h := bits.TrailingZeros64(n)
		return l.tree[h][lo>>h]
	}
	k := splitPoint(n)
	return nodeHash(l.rangeRoot(lo, lo+k), l.rangeRoot(lo+k, hi))
}

// splitPoint returns the largest power of two strictly less than n
// (n ≥ 2).
func splitPoint(n uint64) uint64 {
	return 1 << (bits.Len64(n-1) - 1)
}

// MembershipProof builds the audit path proving that entry i is in the
// log's first n entries under RootAt(n): the sibling subtree roots,
// leaf-to-root order. Verify with VerifyMembership and nothing but the
// proof, the leaf hash, and the root.
func (l *Log) MembershipProof(i, n uint64) ([]Hash, error) {
	if n > l.Size() || i >= n {
		return nil, fmt.Errorf("%w: membership of entry %d in a tree of %d (log holds %d)",
			ErrIndexOutOfRange, i, n, l.Size())
	}
	return l.auditPath(i, 0, n, make([]Hash, 0, bits.Len64(n-1))), nil
}

// auditPath appends to path the RFC 6962 PATH of entry lo+m within
// leaves [lo, hi), deepest sibling first.
func (l *Log) auditPath(m, lo, hi uint64, path []Hash) []Hash {
	if hi-lo == 1 {
		return path
	}
	k := splitPoint(hi - lo)
	if m < k {
		return append(l.auditPath(m, lo, lo+k, path), l.rangeRoot(lo+k, hi))
	}
	return append(l.auditPath(m-k, lo+k, hi, path), l.rangeRoot(lo, lo+k))
}

// ConsistencyProof builds the RFC 6962 proof that the tree of size n
// is an append-only extension of the tree of size m (0 < m ≤ n ≤
// Size). The proof plus the two roots is all a verifier needs; an
// empty proof is valid only for m == n (identical roots).
func (l *Log) ConsistencyProof(m, n uint64) ([]Hash, error) {
	if m == 0 || m > n || n > l.Size() {
		return nil, fmt.Errorf("%w: consistency from %d to %d (log holds %d)",
			ErrIndexOutOfRange, m, n, l.Size())
	}
	if m == n {
		return nil, nil
	}
	return l.subProof(m, 0, n, true, make([]Hash, 0, bits.Len64(n-1)+1)), nil
}

// subProof appends to proof RFC 6962 §2.1.2's SUBPROOF of the first m
// leaves of [lo, hi): complete reports whether those m leaves form the
// complete subtree at this recursion level (in which case its root is
// known to the verifier and omitted).
func (l *Log) subProof(m, lo, hi uint64, complete bool, proof []Hash) []Hash {
	if m == hi-lo {
		if complete {
			return proof
		}
		return append(proof, l.rangeRoot(lo, hi))
	}
	k := splitPoint(hi - lo)
	if m <= k {
		return append(l.subProof(m, lo, lo+k, complete, proof), l.rangeRoot(lo+k, hi))
	}
	return append(l.subProof(m-k, lo+k, hi, false, proof), l.rangeRoot(lo, lo+k))
}

// VerifyMembership checks, offline, that a leaf hash sits at index i of
// the tree of the given size whose root is root. It needs nothing but
// its arguments — no log, no daemon — and fails closed: a wrong-length
// path, an out-of-range index, or any hash disagreement is an error.
func VerifyMembership(root Hash, i, size uint64, leaf Hash, path []Hash) error {
	if size == 0 || i >= size {
		return fmt.Errorf("%w: entry %d in a tree of %d", ErrIndexOutOfRange, i, size)
	}
	// RFC 9162 §2.1.3.2. fn walks the leaf index upward; sn tracks the
	// index of the last node at the current level.
	fn, sn := i, size-1
	r := leaf
	for _, p := range path {
		if sn == 0 {
			return fmt.Errorf("%w: audit path longer than the tree is deep", ErrProofInvalid)
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(p, r)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("%w: audit path shorter than the tree is deep", ErrProofInvalid)
	}
	if r != root {
		return fmt.Errorf("%w: audit path resolves to %s, root is %s", ErrProofInvalid, r, root)
	}
	return nil
}

// VerifyConsistency checks, offline, that the tree of size n with root
// newRoot extends the tree of size m with root oldRoot append-only.
// Like VerifyMembership it needs only its arguments and fails closed.
func VerifyConsistency(m, n uint64, oldRoot, newRoot Hash, path []Hash) error {
	if m == 0 || m > n {
		return fmt.Errorf("%w: consistency from %d to %d", ErrIndexOutOfRange, m, n)
	}
	if m == n {
		if len(path) != 0 {
			return fmt.Errorf("%w: same-size consistency must have an empty path", ErrMalformedProof)
		}
		if oldRoot != newRoot {
			return fmt.Errorf("%w: equal sizes with different roots", ErrProofInvalid)
		}
		return nil
	}
	// RFC 9162 §2.1.4.2. When m is an exact power of two, the old root
	// is itself the first component of the walk.
	rest := path
	var fr, sr Hash
	fn, sn := m-1, n-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	if fn == 0 {
		fr, sr = oldRoot, oldRoot
	} else {
		if len(rest) == 0 {
			return fmt.Errorf("%w: empty consistency path", ErrMalformedProof)
		}
		fr, sr = rest[0], rest[0]
		rest = rest[1:]
	}
	for _, c := range rest {
		if sn == 0 {
			return fmt.Errorf("%w: consistency path longer than the tree is deep", ErrProofInvalid)
		}
		if fn&1 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			if fn&1 == 0 {
				for fn != 0 && fn&1 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return fmt.Errorf("%w: consistency path shorter than the tree is deep", ErrProofInvalid)
	}
	if fr != oldRoot {
		return fmt.Errorf("%w: path reconstructs old root %s, claimed %s", ErrProofInvalid, fr, oldRoot)
	}
	if sr != newRoot {
		return fmt.Errorf("%w: path reconstructs new root %s, claimed %s", ErrProofInvalid, sr, newRoot)
	}
	return nil
}
