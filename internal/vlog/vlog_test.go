package vlog

import (
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// record fabricates a deterministic record payload for entry i.
func record(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d|payload=%d", i, i*i))
}

func buildLog(t testing.TB, n int, retaining bool) *Log {
	t.Helper()
	l := New()
	if retaining {
		l = NewRetaining()
	}
	for i := 0; i < n; i++ {
		if got := l.Append(record(i)); got != uint64(i) {
			t.Fatalf("append %d returned index %d", i, got)
		}
	}
	return l
}

// subtreeRoot, auditPath and subProof are the reference implementation:
// RFC 6962 §2.1's recursive MTH, PATH and SUBPROOF computed from the raw
// leaf hashes, O(n) per call. The stored-node Log must reproduce them
// byte for byte.

// subtreeRoot computes the RFC 6962 MTH of the given leaves
// recursively: split at the largest power of two strictly less than
// the count.
func subtreeRoot(leaves []Hash) Hash {
	if len(leaves) == 1 {
		return leaves[0]
	}
	k := splitPoint(uint64(len(leaves)))
	return nodeHash(subtreeRoot(leaves[:k]), subtreeRoot(leaves[k:]))
}

// auditPath is RFC 6962 §2.1.1's PATH: the audit path of entry m.
func auditPath(m uint64, leaves []Hash) []Hash {
	if len(leaves) == 1 {
		return nil
	}
	k := splitPoint(uint64(len(leaves)))
	if m < k {
		return append(auditPath(m, leaves[:k]), subtreeRoot(leaves[k:]))
	}
	return append(auditPath(m-k, leaves[k:]), subtreeRoot(leaves[:k]))
}

// subProof is RFC 6962 §2.1.2's SUBPROOF: complete reports whether the
// first m leaves form the complete subtree at this recursion level (in
// which case its root is known to the verifier and omitted).
func subProof(m uint64, leaves []Hash, complete bool) []Hash {
	n := uint64(len(leaves))
	if m == n {
		if complete {
			return nil
		}
		return []Hash{subtreeRoot(leaves)}
	}
	k := splitPoint(n)
	if m <= k {
		return append(subProof(m, leaves[:k], complete), subtreeRoot(leaves[k:]))
	}
	return append(subProof(m-k, leaves[k:], false), subtreeRoot(leaves[:k]))
}

// oracleLeaves hashes record(0..n-1) independently of any Log.
func oracleLeaves(n int) []Hash {
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i] = LeafHash(record(i))
	}
	return leaves
}

// The stored-node root must equal the recursive oracle at every size,
// and RootAt(n) of a longer log must equal Root() of a log truncated at
// n — the append-only property in hash form.
func TestRootIncrementalMatchesRecursive(t *testing.T) {
	t.Parallel()
	const maxN = 130
	full := buildLog(t, maxN, false)
	leaves := oracleLeaves(maxN)
	for n := 0; n <= maxN; n++ {
		prefix := buildLog(t, n, false)
		at, err := full.RootAt(uint64(n))
		if err != nil {
			t.Fatalf("RootAt(%d): %v", n, err)
		}
		if at != prefix.Root() {
			t.Fatalf("RootAt(%d) != prefix root", n)
		}
		if n > 0 && at != subtreeRoot(leaves[:n]) {
			t.Fatalf("RootAt(%d) != recursive oracle", n)
		}
	}
	for i, want := range leaves {
		if got, _ := full.Leaf(uint64(i)); got != want {
			t.Fatalf("Leaf(%d) != LeafHash(record(%d))", i, i)
		}
	}
	if _, err := full.RootAt(maxN + 1); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("RootAt past the end: %v", err)
	}
	if full.Root() == (Hash{}) {
		t.Fatal("root is the zero hash")
	}
	empty := New()
	if empty.Root() != sha256.Sum256(nil) {
		t.Fatal("empty root is not SHA-256 of the empty string")
	}
}

// encodeRecord is the AppendBatch callback for the record(i) payloads.
func encodeRecord(buf []byte, i int) []byte { return append(buf, record(i)...) }

// batchSizes are the log sizes the batch tests build: every size up to
// 65, every 2^k−1, 2^k and 2^k+1 up to 2^17, and the sizes around the
// fan-out grain and twice it, ascending.
func batchSizes() []int {
	set := map[int]bool{}
	for n := 0; n <= 65; n++ {
		set[n] = true
	}
	for p := 2; p <= 1<<17; p <<= 1 {
		set[p-1], set[p], set[p+1] = true, true, true
	}
	for _, g := range []int{grain, 2 * grain} {
		set[g-1], set[g], set[g+1] = true, true, true
	}
	sizes := make([]int, 0, len(set))
	for n := range set {
		sizes = append(sizes, n)
	}
	slices.Sort(sizes)
	return sizes
}

// sameLog fails unless a and b, both of n leaves, store the same node
// at every cell of every level and give byte-identical RootAt, every
// MembershipProof and every ConsistencyProof at size n; and the
// recursive oracle agrees with their root and with the proofs of the
// first, last and middle entries.
func sameLog(t *testing.T, what string, a, b *Log, leaves []Hash) {
	t.Helper()
	n := a.Size()
	if b.Size() != n {
		t.Fatalf("%s: sizes %d and %d", what, n, b.Size())
	}
	for h := 0; h < bits.Len64(n); h++ {
		if !slices.Equal(a.tree[h], b.tree[h]) {
			t.Fatalf("%s at %d leaves: level %d differs", what, n, h)
		}
	}
	if n == 0 {
		if a.Root() != emptyRoot() || b.Root() != emptyRoot() {
			t.Fatalf("%s: empty root differs", what)
		}
		return
	}
	if a.Root() != subtreeRoot(leaves[:n]) || b.Root() != a.Root() {
		t.Fatalf("%s at %d leaves: root differs from the recursive oracle", what, n)
	}
	for i := uint64(0); i < n; i++ {
		ra, _ := a.RootAt(i + 1)
		rb, _ := b.RootAt(i + 1)
		pa, _ := a.MembershipProof(i, n)
		pb, _ := b.MembershipProof(i, n)
		ca, _ := a.ConsistencyProof(i+1, n)
		cb, _ := b.ConsistencyProof(i+1, n)
		if ra != rb || !slices.Equal(pa, pb) || !slices.Equal(ca, cb) {
			t.Fatalf("%s at %d leaves: root at %d, proof of entry %d or consistency from %d differs",
				what, n, i+1, i, i+1)
		}
	}
	for _, i := range []uint64{0, n / 2, n - 1} {
		if p, _ := a.MembershipProof(i, n); !slices.Equal(p, auditPath(i, leaves[:n])) {
			t.Fatalf("%s at %d leaves: proof of entry %d differs from the recursive oracle", what, n, i)
		}
		if p, _ := a.ConsistencyProof(i+1, n); i+1 < n && !slices.Equal(p, subProof(i+1, leaves[:n], true)) {
			t.Fatalf("%s at %d leaves: consistency from %d differs from the recursive oracle", what, n, i+1)
		}
	}
}

// AppendBatch and Append share one level-merge, and their logs must be
// indistinguishable: at every batch size, a log built in one batch
// equals a log appended one record at a time, node for node and proof
// for proof, and both equal the recursive oracle. Sizes from the grain
// up fan out; GOMAXPROCS is pinned to 3 so they do on any host, into
// ranges of unequal width.
func TestAppendBatchMatchesAppend(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	sizes := batchSizes()
	leaves := oracleLeaves(sizes[len(sizes)-1])
	seq := New()
	for _, n := range sizes {
		for seq.Size() < uint64(n) {
			seq.Append(record(int(seq.Size())))
		}
		batch := New()
		batch.AppendBatch(n, encodeRecord)
		sameLog(t, "batch vs appended", batch, seq, leaves)
	}
}

// A batch appended onto a non-empty retaining log extends it exactly as
// single appends do, keeping every record's bytes; a batch of zero
// records changes nothing.
func TestAppendBatchOntoRetainingLog(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, sz := range [][2]int{{1, 3}, {5, grain + 3}, {grain + 1, 2*grain - 1}, {7, 0}} {
		base, add := sz[0], sz[1]
		n := base + add
		leaves := oracleLeaves(n)
		want := buildLog(t, n, true)
		l := buildLog(t, base, true)
		l.AppendBatch(add, func(buf []byte, i int) []byte { return encodeRecord(buf, base+i) })
		sameLog(t, fmt.Sprintf("%d+%d", base, add), l, want, leaves)
		for i := 0; i < n; i++ {
			if got, err := l.Record(uint64(i)); err != nil || string(got) != string(record(i)) {
				t.Fatalf("%d+%d: record %d = %q, %v", base, add, i, got, err)
			}
		}
	}
}

// Seeded random sizes up to 5000, including every 2^k−1, 2^k and 2^k+1
// in range: RootAt and both proof kinds must equal the recursive oracle
// byte for byte, where the stored-node code takes different shortcuts
// at every level of an unbalanced tree.
func TestProofsMatchOracleRandomized(t *testing.T) {
	t.Parallel()
	const maxN = 5000
	l := buildLog(t, maxN, false)
	leaves := oracleLeaves(maxN)
	rng := rand.New(rand.NewSource(13))
	sizes := []uint64{1, 2, maxN}
	for p := uint64(4); p < maxN; p <<= 1 {
		sizes = append(sizes, p-1, p, p+1)
	}
	for len(sizes) < 60 {
		sizes = append(sizes, 1+uint64(rng.Intn(maxN)))
	}
	for _, n := range sizes {
		root, err := l.RootAt(n)
		if err != nil {
			t.Fatalf("RootAt(%d): %v", n, err)
		}
		if root != subtreeRoot(leaves[:n]) {
			t.Fatalf("RootAt(%d) != recursive oracle", n)
		}
		for _, i := range []uint64{0, n - 1, uint64(rng.Int63n(int64(n)))} {
			path, err := l.MembershipProof(i, n)
			if err != nil {
				t.Fatalf("proof(%d, %d): %v", i, n, err)
			}
			if !slices.Equal(path, auditPath(i, leaves[:n])) {
				t.Fatalf("proof(%d, %d) != recursive oracle", i, n)
			}
		}
		for _, m := range []uint64{1, n, 1 + uint64(rng.Int63n(int64(n)))} {
			path, err := l.ConsistencyProof(m, n)
			if err != nil {
				t.Fatalf("consistency(%d, %d): %v", m, n, err)
			}
			var want []Hash
			if m < n {
				want = subProof(m, leaves[:n], true)
			}
			if !slices.Equal(path, want) {
				t.Fatalf("consistency(%d, %d) != recursive oracle", m, n)
			}
		}
	}
}

// Every (index, size) pair must produce a verifying membership proof,
// and every proof must fail against any other index, size, leaf, or a
// perturbed path — exhaustively over tree sizes 1..=65.
func TestMembershipProofExhaustive(t *testing.T) {
	t.Parallel()
	const maxN = 65
	l := buildLog(t, maxN, false)
	leaves := oracleLeaves(maxN)
	for n := uint64(1); n <= maxN; n++ {
		root, err := l.RootAt(n)
		if err != nil {
			t.Fatalf("RootAt(%d): %v", n, err)
		}
		for i := uint64(0); i < n; i++ {
			path, err := l.MembershipProof(i, n)
			if err != nil {
				t.Fatalf("proof(%d, %d): %v", i, n, err)
			}
			if !slices.Equal(path, auditPath(i, leaves[:n])) {
				t.Fatalf("proof(%d, %d) != recursive oracle", i, n)
			}
			leaf, _ := l.Leaf(i)
			if err := VerifyMembership(root, i, n, leaf, path); err != nil {
				t.Fatalf("honest proof(%d, %d) rejected: %v", i, n, err)
			}
			// Wrong index (when one exists) must fail.
			if n > 1 {
				j := (i + 1) % n
				if err := VerifyMembership(root, j, n, leaf, path); err == nil {
					lj, _ := l.Leaf(j)
					if lj != leaf {
						t.Fatalf("proof(%d, %d) accepted at wrong index %d", i, n, j)
					}
				}
			}
			// Wrong leaf must fail.
			bad := leaf
			bad[0] ^= 0x01
			if err := VerifyMembership(root, i, n, bad, path); err == nil {
				t.Fatalf("proof(%d, %d) accepted a flipped leaf", i, n)
			}
			// Perturbed path elements must fail.
			for k := range path {
				mut := append([]Hash(nil), path...)
				mut[k][5] ^= 0x80
				if err := VerifyMembership(root, i, n, leaf, mut); err == nil {
					t.Fatalf("proof(%d, %d) accepted a flipped path[%d]", i, n, k)
				}
			}
			// Truncated and padded paths must fail.
			if len(path) > 0 {
				if err := VerifyMembership(root, i, n, leaf, path[:len(path)-1]); err == nil {
					t.Fatalf("proof(%d, %d) accepted truncation", i, n)
				}
			}
			if err := VerifyMembership(root, i, n, leaf, append(append([]Hash(nil), path...), Hash{})); err == nil {
				t.Fatalf("proof(%d, %d) accepted a padded path", i, n)
			}
		}
		// Out-of-range requests are typed errors.
		if _, err := l.MembershipProof(n, n); !errors.Is(err, ErrIndexOutOfRange) {
			t.Fatalf("proof(%d, %d) out of range: %v", n, n, err)
		}
	}
}

// Every prefix pair (m ≤ n) must produce a verifying consistency proof,
// and swapped roots, perturbed paths, and crossed sizes must all fail —
// exhaustively over sizes 1..=65.
func TestConsistencyProofExhaustive(t *testing.T) {
	t.Parallel()
	const maxN = 65
	l := buildLog(t, maxN, false)
	leaves := oracleLeaves(maxN)
	roots := make([]Hash, maxN+1)
	for n := 0; n <= maxN; n++ {
		roots[n], _ = l.RootAt(uint64(n))
	}
	for m := uint64(1); m <= maxN; m++ {
		for n := m; n <= maxN; n++ {
			path, err := l.ConsistencyProof(m, n)
			if err != nil {
				t.Fatalf("consistency(%d, %d): %v", m, n, err)
			}
			var want []Hash
			if m < n {
				want = subProof(m, leaves[:n], true)
			}
			if !slices.Equal(path, want) {
				t.Fatalf("consistency(%d, %d) != recursive oracle", m, n)
			}
			if err := VerifyConsistency(m, n, roots[m], roots[n], path); err != nil {
				t.Fatalf("honest consistency(%d, %d) rejected: %v", m, n, err)
			}
			if m != n {
				// Swapped roots must fail (a rewritten history cannot
				// claim to extend the old one).
				if err := VerifyConsistency(m, n, roots[n], roots[m], path); err == nil {
					t.Fatalf("consistency(%d, %d) accepted swapped roots", m, n)
				}
				// A stale "old" root from a different size must fail.
				if err := VerifyConsistency(m, n, roots[m-1], roots[n], path); err == nil && roots[m-1] != roots[m] {
					t.Fatalf("consistency(%d, %d) accepted a stale old root", m, n)
				}
				for k := range path {
					mut := append([]Hash(nil), path...)
					mut[k][11] ^= 0x04
					if err := VerifyConsistency(m, n, roots[m], roots[n], mut); err == nil {
						t.Fatalf("consistency(%d, %d) accepted flipped path[%d]", m, n, k)
					}
				}
				if len(path) > 0 {
					if err := VerifyConsistency(m, n, roots[m], roots[n], path[:len(path)-1]); err == nil {
						t.Fatalf("consistency(%d, %d) accepted truncation", m, n)
					}
				}
				if err := VerifyConsistency(m, n, roots[m], roots[n], append(append([]Hash(nil), path...), Hash{})); err == nil {
					t.Fatalf("consistency(%d, %d) accepted a padded path", m, n)
				}
			}
		}
	}
	if _, err := l.ConsistencyProof(0, 5); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("consistency from 0: %v", err)
	}
	if _, err := l.ConsistencyProof(5, 3); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("consistency backwards: %v", err)
	}
	if err := VerifyConsistency(3, 3, roots[3], roots[4], nil); err == nil {
		t.Fatal("same-size consistency accepted different roots")
	}
}

// The root is the whole log's tamper evidence: one flipped bit deep in
// history changes it, and a proof issued under the honest root fails
// against the edited one.
func TestRootDetectsEdits(t *testing.T) {
	t.Parallel()
	a := buildLog(t, 20, false)
	b := New()
	for i := 0; i < 20; i++ {
		rec := record(i)
		if i == 7 {
			rec[0] ^= 0x01 // one flipped bit, deep in history
		}
		b.Append(rec)
	}
	if a.Root() == b.Root() {
		t.Fatal("root unchanged after a historical edit")
	}
	path, err := a.MembershipProof(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := a.Leaf(3)
	if err := VerifyMembership(a.Root(), 3, 20, leaf, path); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
	if err := VerifyMembership(b.Root(), 3, 20, leaf, path); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("old proof against the edited root: %v, want ErrProofInvalid", err)
	}
}

// Record retention: a retaining log returns the appended bytes, a
// hash-only log reports ErrNotRetained.
func TestRecordRetention(t *testing.T) {
	t.Parallel()
	r := buildLog(t, 4, true)
	got, err := r.Record(2)
	if err != nil || string(got) != string(record(2)) {
		t.Fatalf("retained record: %q, %v", got, err)
	}
	h := buildLog(t, 4, false)
	if _, err := h.Record(2); !errors.Is(err, ErrNotRetained) {
		t.Fatalf("hash-only record: %v", err)
	}
	if _, err := r.Record(9); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("out-of-range record: %v", err)
	}
}

// Envelope round trip: a served membership or consistency envelope must
// parse and verify; every corruption in the corpus must be rejected
// with a typed error. This is the same corpus shape the CLI and CI
// tamper demos rely on.
func TestEnvelopeRoundTripAndCorruptionCorpus(t *testing.T) {
	t.Parallel()
	signer, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	l := buildLog(t, 37, true)

	mem, err := NewMembershipEnvelope(l, "test-log", 11, l.Size(), signer)
	if err != nil {
		t.Fatal(err)
	}
	con, err := NewConsistencyEnvelope(l, "test-log", 17, l.Size(), signer)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Envelope{"membership": mem, "consistency": con} {
		data, err := e.MarshalIndent()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		parsed, err := ParseEnvelope(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if err := parsed.Verify(); err != nil {
			t.Fatalf("%s: honest envelope rejected: %v", name, err)
		}
		root := l.Root()
		if err := parsed.VerifyAgainst(&root, signer.PublicKey()); err != nil {
			t.Fatalf("%s: honest envelope rejected against anchors: %v", name, err)
		}
	}

	memJSON, _ := mem.MarshalIndent()
	corrupt := func(t *testing.T, name string, mutate func(e *Envelope), want error) {
		t.Helper()
		parsed, err := ParseEnvelope(memJSON)
		if err != nil {
			t.Fatal(err)
		}
		mutate(parsed)
		err = parsed.Verify()
		if err == nil {
			t.Fatalf("corruption %q was accepted", name)
		}
		if want != nil && !errors.Is(err, want) {
			t.Fatalf("corruption %q: got %v, want %v", name, err, want)
		}
	}
	corrupt(t, "root bit-flip", func(e *Envelope) {
		e.Root = "0" + e.Root[1:]
		if e.Root == mem.Root {
			e.Root = "1" + e.Root[1:]
		}
	}, ErrProofInvalid)
	corrupt(t, "leaf bit-flip", func(e *Envelope) {
		e.LeafHash = flipHex(e.LeafHash)
	}, ErrProofInvalid)
	corrupt(t, "record swap", func(e *Envelope) {
		e.Record = base64.StdEncoding.EncodeToString(record(12))
	}, ErrProofInvalid)
	corrupt(t, "path truncation", func(e *Envelope) {
		e.Path = e.Path[:len(e.Path)-1]
	}, ErrProofInvalid)
	corrupt(t, "path reorder", func(e *Envelope) {
		e.Path[0], e.Path[1] = e.Path[1], e.Path[0]
	}, ErrProofInvalid)
	corrupt(t, "index shift", func(e *Envelope) {
		e.Index++
	}, nil)
	corrupt(t, "size shift", func(e *Envelope) {
		e.TreeSize++
	}, nil)
	corrupt(t, "stale root for a grown tree", func(e *Envelope) {
		// Claim the same root for a larger tree: the path no longer
		// matches the claimed geometry.
		e.TreeSize = e.TreeSize + 3
	}, nil)
	corrupt(t, "signature bit-flip", func(e *Envelope) {
		e.Signature = flipHex(e.Signature)
	}, ErrBadSignature)
	corrupt(t, "signature stripped but key kept", func(e *Envelope) {
		e.Signature = ""
	}, ErrMalformedProof)
	corrupt(t, "foreign key", func(e *Envelope) {
		other, err := NewSigner()
		if err != nil {
			t.Fatal(err)
		}
		e.PublicKey = other.PublicKey()
	}, ErrBadSignature)
	corrupt(t, "malformed hex path", func(e *Envelope) {
		e.Path[0] = strings.Repeat("zz", HashSize)
	}, ErrMalformedProof)
	corrupt(t, "kind swap", func(e *Envelope) {
		e.Kind = KindConsistency
	}, ErrMalformedProof)

	// Document-level corruption: truncated JSON, unknown fields,
	// trailing garbage, unknown kind.
	if _, err := ParseEnvelope(memJSON[:len(memJSON)/2]); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("truncated JSON: %v", err)
	}
	if _, err := ParseEnvelope([]byte(`{"kind":"membership","evil":1,"path":[]}`)); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("unknown field: %v", err)
	}
	if _, err := ParseEnvelope(append(append([]byte(nil), memJSON...), []byte("{}")...)); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("trailing document: %v", err)
	}
	// A stray closing bracket leaves Decoder.More false, so only an
	// explicit end-of-input check rejects these.
	for _, stray := range []string{"}", "]"} {
		if _, err := ParseEnvelope(append(append([]byte(nil), memJSON...), stray...)); !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("trailing %q: %v", stray, err)
		}
		if _, err := ParseEnvelope([]byte(`{"kind":"membership","path":[]}` + stray)); !errors.Is(err, ErrMalformedProof) {
			t.Fatalf("minimal document with trailing %q: %v", stray, err)
		}
	}
	if _, err := ParseEnvelope(append(append([]byte(nil), memJSON...), " \n\t"...)); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	if _, err := ParseEnvelope([]byte(`{"kind":"audit","path":[]}`)); !errors.Is(err, ErrMalformedProof) {
		t.Fatalf("unknown kind: %v", err)
	}

	// Anchor mismatches: wrong trusted root, wrong pinned key.
	parsed, _ := ParseEnvelope(memJSON)
	wrong := l.Root()
	wrong[3] ^= 0xff
	if err := parsed.VerifyAgainst(&wrong, ""); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("wrong trusted root: %v", err)
	}
	other, _ := NewSigner()
	if err := parsed.VerifyAgainst(nil, other.PublicKey()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong pinned key: %v", err)
	}
}

// flipHex flips one bit of a hex string's first character while keeping
// it valid hex.
func flipHex(s string) string {
	if s == "" {
		return s
	}
	c := "0"
	if s[0] == '0' {
		c = "1"
	}
	return c + s[1:]
}

// ParseHash fails closed on every malformed input.
func TestParseHashFailClosed(t *testing.T) {
	t.Parallel()
	good := LeafHash([]byte("x")).String()
	if _, err := ParseHash(good); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for _, bad := range []string{"", "abcd", good + "00", strings.Replace(good, good[:1], "g", 1), strings.ToUpper(good)} {
		h, err := ParseHash(bad)
		if bad == strings.ToUpper(good) {
			// Uppercase hex is tolerated on parse (case-insensitive),
			// but must round-trip to the same hash.
			if err != nil || h.String() != good {
				t.Fatalf("uppercase hex: %v, %s", err, h)
			}
			continue
		}
		if err == nil {
			t.Fatalf("ParseHash(%q) accepted", bad)
		}
	}
}

// RootStatement binds the size: the same root at two sizes signs
// differently.
func TestRootStatementBindsSize(t *testing.T) {
	t.Parallel()
	var r Hash
	if string(RootStatement(1, r)) == string(RootStatement(2, r)) {
		t.Fatal("root statement ignores size")
	}
}

func BenchmarkProofGenerate(b *testing.B) {
	benchProofGenerate(b, buildLog(b, 1024, false))
}

// largeLog is the 2^20-leaf log BenchmarkProofGenerateLarge proves
// against, built once per process: go test calls a benchmark several
// times while it ramps b.N.
var largeLog = sync.OnceValue(func() *Log {
	l := New()
	for i := 0; i < 1<<20; i++ {
		l.Append(record(i))
	}
	return l
})

// BenchmarkProofGenerateLarge is BenchmarkProofGenerate at 2^20 leaves.
// Proof cost is O(log n), so it should sit near 2x the 1024-leaf
// figure; cmd/benchtrend fails the run above 4x, which an O(n) proof
// (about 1000x) cannot hide under.
func BenchmarkProofGenerateLarge(b *testing.B) {
	benchProofGenerate(b, largeLog())
}

// BenchmarkProofsUnaligned times one audit at a tree size that is not
// a power of two, 1000 leaves: the historical root RootAt(m), a
// membership proof of entry m-1 and a consistency proof from m to n,
// for m spread over the whole tree. At such sizes the right spine of
// the tree has no stored node and is hashed on every call, so this is
// the general case BenchmarkProofGenerate's power-of-two sizes skip.
func BenchmarkProofsUnaligned(b *testing.B) {
	benchProofsUnaligned(b, buildLog(b, 1024, false), 1000)
}

// BenchmarkProofsUnalignedLarge is BenchmarkProofsUnaligned at 10^6
// leaves, the first 10^6 entries of the 2^20-leaf log. 1000 and 10^6
// have 6 and 7 one bits, so their right spines are about as deep, and
// the O(log n) cost should again sit near 2x; cmd/benchtrend fails the
// run above 4x.
func BenchmarkProofsUnalignedLarge(b *testing.B) {
	benchProofsUnaligned(b, largeLog(), 1000000)
}

func benchProofsUnaligned(b *testing.B, l *Log, n uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A large prime stride visits old sizes across the whole tree
		// rather than only its first b.N entries.
		m := 1 + uint64(i)*104729%n
		var err error
		if rootSink, err = l.RootAt(m); err != nil {
			b.Fatal(err)
		}
		if pathSink, err = l.MembershipProof(m-1, n); err != nil {
			b.Fatal(err)
		}
		if pathSink, err = l.ConsistencyProof(m, n); err != nil {
			b.Fatal(err)
		}
	}
}

// rootSink and pathSink keep the benchmarks' results live, so the
// compiler cannot drop the calls that produce them.
var (
	rootSink Hash
	pathSink []Hash
)

func benchProofGenerate(b *testing.B, l *Log) {
	n := l.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if pathSink, err = l.MembershipProof(uint64(i)%n, n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProofVerify(b *testing.B) {
	l := buildLog(b, 1024, false)
	n := l.Size()
	root := l.Root()
	paths := make([][]Hash, n)
	leaves := make([]Hash, n)
	for i := uint64(0); i < n; i++ {
		paths[i], _ = l.MembershipProof(i, n)
		leaves[i], _ = l.Leaf(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := uint64(i) % n
		if err := VerifyMembership(root, j, n, leaves[j], paths[j]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsistencyVerify(b *testing.B) {
	l := buildLog(b, 1024, false)
	m, n := uint64(700), l.Size()
	oldRoot, _ := l.RootAt(m)
	newRoot := l.Root()
	path, err := l.ConsistencyProof(m, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyConsistency(m, n, oldRoot, newRoot, path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	rec := record(1)
	b.ReportAllocs()
	b.ResetTimer()
	l := New()
	for i := 0; i < b.N; i++ {
		l.Append(rec)
	}
}
