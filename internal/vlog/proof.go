package vlog

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
)

// Proof kinds, the discriminator of an Envelope.
const (
	// KindMembership proves one record is in the log at a given index
	// under a given root.
	KindMembership = "membership"
	// KindConsistency proves the log at one size is an append-only
	// extension of the log at an earlier size.
	KindConsistency = "consistency"
)

// Envelope is the portable, self-contained proof document: what
// GET /v1/proof/... returns and what `trustseq verify-proof` consumes.
// All hashes are lowercase hex; record bytes are base64. The envelope
// deliberately carries everything the verifier needs — kind, positions,
// roots, path, optionally the record and a root signature — so
// verification is a pure function of the document plus whatever trusted
// roots or keys the caller pins externally.
type Envelope struct {
	// Kind is KindMembership or KindConsistency.
	Kind string `json:"kind"`
	// Log labels which log the proof speaks about (e.g.
	// "trustd-analysis", "sim-settlement"). Informational.
	Log string `json:"log,omitempty"`

	// Membership fields: entry Index in the tree of TreeSize entries
	// whose root is Root; LeafHash is the domain-separated hash of the
	// record; Record, when present, is the record bytes themselves
	// (base64), which must hash to LeafHash.
	Index    uint64 `json:"index,omitempty"`
	TreeSize uint64 `json:"tree_size,omitempty"`
	LeafHash string `json:"leaf_hash,omitempty"`
	Record   string `json:"record,omitempty"`
	Root     string `json:"root,omitempty"`

	// Consistency fields: the tree grew from FromSize (root FromRoot)
	// to ToSize (root ToRoot).
	FromSize uint64 `json:"from_size,omitempty"`
	ToSize   uint64 `json:"to_size,omitempty"`
	FromRoot string `json:"from_root,omitempty"`
	ToRoot   string `json:"to_root,omitempty"`

	// Path is the proof itself: sibling subtree roots, hex, in
	// verification order.
	Path []string `json:"path"`

	// PublicKey/Signature, when present, carry an ed25519 signature by
	// the log's owner over the statement binding the (size, root) pair
	// this proof resolves to — see Signer. Hex-encoded.
	PublicKey string `json:"public_key,omitempty"`
	Signature string `json:"signature,omitempty"`
}

// ParseEnvelope decodes a proof document, failing closed: unknown
// fields, trailing data, or a kind this package does not know are all
// ErrMalformedProof. It does NOT verify the proof — call Verify.
func ParseEnvelope(data []byte) (*Envelope, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var e Envelope
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformedProof, err)
	}
	// More() is false before a stray closing bracket, so ask for the
	// next token instead: only a clean end of input is accepted.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after the proof document", ErrMalformedProof)
	}
	if e.Kind != KindMembership && e.Kind != KindConsistency {
		return nil, fmt.Errorf("%w: unknown proof kind %q", ErrMalformedProof, e.Kind)
	}
	return &e, nil
}

// path decodes the hex path.
func (e *Envelope) path() ([]Hash, error) {
	out := make([]Hash, len(e.Path))
	for i, s := range e.Path {
		h, err := ParseHash(s)
		if err != nil {
			return nil, fmt.Errorf("path[%d]: %w", i, err)
		}
		out[i] = h
	}
	return out, nil
}

// Verify checks the envelope offline, fail-closed. For a membership
// envelope it checks that (a) the record, when present, hashes to
// LeafHash, and (b) the audit path binds LeafHash at Index into Root at
// TreeSize. For a consistency envelope it checks the path binds
// FromRoot at FromSize into ToRoot at ToSize. When the envelope carries
// a signature, it must verify over the envelope's own (size, root)
// statement under the embedded public key — a pinned key or trusted
// root is checked separately (VerifyAgainst).
func (e *Envelope) Verify() error {
	path, err := e.path()
	if err != nil {
		return err
	}
	switch e.Kind {
	case KindMembership:
		if e.Root == "" || e.LeafHash == "" {
			return fmt.Errorf("%w: membership proof is missing root or leaf_hash", ErrMalformedProof)
		}
		root, err := ParseHash(e.Root)
		if err != nil {
			return fmt.Errorf("root: %w", err)
		}
		leaf, err := ParseHash(e.LeafHash)
		if err != nil {
			return fmt.Errorf("leaf_hash: %w", err)
		}
		if e.Record != "" {
			rec, err := base64.StdEncoding.DecodeString(e.Record)
			if err != nil {
				return fmt.Errorf("%w: record is not valid base64: %v", ErrMalformedProof, err)
			}
			if LeafHash(rec) != leaf {
				return fmt.Errorf("%w: record bytes do not hash to leaf_hash", ErrProofInvalid)
			}
		}
		if err := VerifyMembership(root, e.Index, e.TreeSize, leaf, path); err != nil {
			return err
		}
		return e.verifySignature(e.TreeSize, root)
	case KindConsistency:
		if e.FromRoot == "" || e.ToRoot == "" {
			return fmt.Errorf("%w: consistency proof is missing from_root or to_root", ErrMalformedProof)
		}
		fromRoot, err := ParseHash(e.FromRoot)
		if err != nil {
			return fmt.Errorf("from_root: %w", err)
		}
		toRoot, err := ParseHash(e.ToRoot)
		if err != nil {
			return fmt.Errorf("to_root: %w", err)
		}
		if err := VerifyConsistency(e.FromSize, e.ToSize, fromRoot, toRoot, path); err != nil {
			return err
		}
		return e.verifySignature(e.ToSize, toRoot)
	default:
		return fmt.Errorf("%w: unknown proof kind %q", ErrMalformedProof, e.Kind)
	}
}

// VerifyAgainst is Verify plus external anchors: a non-nil trustedRoot
// must equal the envelope's (new) root, and a non-empty pinned public
// key (hex) must equal the envelope's embedded key. This is what makes
// the verification mean something — an attacker can always regenerate a
// self-consistent envelope over forged data, but not one matching a
// root or key the caller obtained out of band.
func (e *Envelope) VerifyAgainst(trustedRoot *Hash, pinnedKey string) error {
	if err := e.Verify(); err != nil {
		return err
	}
	if trustedRoot != nil {
		claimed := e.Root
		if e.Kind == KindConsistency {
			claimed = e.ToRoot
		}
		got, err := ParseHash(claimed)
		if err != nil {
			return err
		}
		if got != *trustedRoot {
			return fmt.Errorf("%w: proof root %s, trusted root %s", ErrRootMismatch, got, *trustedRoot)
		}
	}
	if pinnedKey != "" {
		if e.PublicKey == "" {
			return fmt.Errorf("%w: a public key is pinned but the proof carries none", ErrBadSignature)
		}
		if e.PublicKey != pinnedKey {
			return fmt.Errorf("%w: proof is signed by %s, pinned key is %s", ErrBadSignature, e.PublicKey, pinnedKey)
		}
	}
	return nil
}

// MarshalIndent renders the envelope as the canonical pretty JSON the
// proof endpoints serve.
func (e *Envelope) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// hashes renders a []Hash path as the envelope's hex form.
func hashes(path []Hash) []string {
	out := make([]string, len(path))
	for i, h := range path {
		out[i] = h.String()
	}
	return out
}

// NewMembershipEnvelope builds a self-contained membership envelope for
// entry i of the log's first n entries. record may be nil (hash-only
// logs); signer may be nil (unsigned logs).
func NewMembershipEnvelope(l *Log, label string, i, n uint64, signer *Signer) (*Envelope, error) {
	root, err := l.RootAt(n)
	if err != nil {
		return nil, err
	}
	leaf, err := l.Leaf(i)
	if err != nil {
		return nil, err
	}
	path, err := l.MembershipProof(i, n)
	if err != nil {
		return nil, err
	}
	e := &Envelope{
		Kind:     KindMembership,
		Log:      label,
		Index:    i,
		TreeSize: n,
		LeafHash: leaf.String(),
		Root:     root.String(),
		Path:     hashes(path),
	}
	if rec, err := l.Record(i); err == nil {
		e.Record = base64.StdEncoding.EncodeToString(rec)
	}
	signer.sign(e, n, root)
	return e, nil
}

// NewConsistencyEnvelope builds a self-contained consistency envelope
// from size m to size n of the log. signer may be nil.
func NewConsistencyEnvelope(l *Log, label string, m, n uint64, signer *Signer) (*Envelope, error) {
	fromRoot, err := l.RootAt(m)
	if err != nil {
		return nil, err
	}
	if m == 0 {
		return nil, fmt.Errorf("%w: consistency from an empty log is vacuous; from_size must be ≥ 1", ErrIndexOutOfRange)
	}
	toRoot, err := l.RootAt(n)
	if err != nil {
		return nil, err
	}
	path, err := l.ConsistencyProof(m, n)
	if err != nil {
		return nil, err
	}
	e := &Envelope{
		Kind:     KindConsistency,
		Log:      label,
		FromSize: m,
		ToSize:   n,
		FromRoot: fromRoot.String(),
		ToRoot:   toRoot.String(),
		Path:     hashes(path),
	}
	signer.sign(e, n, toRoot)
	return e, nil
}
