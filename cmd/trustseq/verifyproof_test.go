package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trustseq/internal/vlog"
)

// proofFixture writes a signed membership and consistency envelope for
// a small log and returns their paths plus the log's anchors.
func proofFixture(t *testing.T) (memPath, conPath string, root, oldRoot vlog.Hash, pubkey string) {
	t.Helper()
	dir := t.TempDir()
	signer, err := vlog.NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	l := vlog.NewRetaining()
	for i := 0; i < 13; i++ {
		l.Append([]byte(strings.Repeat("x", i+1)))
	}
	root = l.Root()
	oldRoot, err = l.RootAt(5)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := vlog.NewMembershipEnvelope(l, "test", 4, l.Size(), signer)
	if err != nil {
		t.Fatal(err)
	}
	con, err := vlog.NewConsistencyEnvelope(l, "test", 5, l.Size(), signer)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, e *vlog.Envelope) string {
		data, err := e.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return write("mem.json", mem), write("con.json", con), root, oldRoot, signer.PublicKey()
}

func TestVerifyProofAcceptsHonestEnvelopes(t *testing.T) {
	memPath, conPath, root, oldRoot, pubkey := proofFixture(t)
	var out bytes.Buffer
	if err := run([]string{"verify-proof", "-root", root.String(), "-pubkey", pubkey, memPath}, &out); err != nil {
		t.Fatalf("membership: %v", err)
	}
	if !strings.HasPrefix(out.String(), "OK membership") {
		t.Fatalf("membership output: %q", out.String())
	}
	out.Reset()
	// The "size:hex" header form must be accepted verbatim.
	if err := run([]string{"verify-proof", "-root", "13:" + root.String(), "-old-root", "5:" + oldRoot.String(), conPath}, &out); err != nil {
		t.Fatalf("consistency: %v", err)
	}
	if !strings.HasPrefix(out.String(), "OK consistency") {
		t.Fatalf("consistency output: %q", out.String())
	}
}

// The corruption corpus: every tampered document must be rejected with
// the matching taxonomy class, non-nil error (→ non-zero exit in main).
func TestVerifyProofRejectsTamperedEnvelopes(t *testing.T) {
	memPath, conPath, root, _, pubkey := proofFixture(t)
	honest, err := os.ReadFile(memPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeDoc := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := []struct {
		name string
		args []string
		want error
	}{
		{"truncation", []string{writeDoc("trunc.json", honest[:len(honest)/2])}, vlog.ErrMalformedProof},
		{"bit-flip", []string{writeDoc("flip.json", bytes.Replace(honest, []byte(`"index": 4`), []byte(`"index": 5`), 1))}, vlog.ErrProofInvalid},
		{"trailing garbage", []string{writeDoc("trail.json", append(append([]byte(nil), honest...), '{', '}'))}, vlog.ErrMalformedProof},
		{"stray closing brace", []string{writeDoc("brace.json", append(append([]byte(nil), honest...), '}'))}, vlog.ErrMalformedProof},
		{"root mismatch", []string{"-root", strings.Repeat("0", 64), memPath}, vlog.ErrRootMismatch},
		{"wrong pinned key", []string{"-pubkey", strings.Repeat("a", 64), memPath}, vlog.ErrBadSignature},
		{"old-root mismatch", []string{"-old-root", strings.Repeat("0", 64), conPath}, vlog.ErrRootMismatch},
		{"missing file", []string{filepath.Join(dir, "nope.json")}, nil},
	}
	for _, tc := range cases {
		err := run(append([]string{"verify-proof", "-q"}, tc.args...), &bytes.Buffer{})
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want class %v", tc.name, err, tc.want)
		}
	}

	// -old-root against a membership proof is a usage error, not a pass.
	if err := run([]string{"verify-proof", "-q", "-old-root", root.String(), memPath}, &bytes.Buffer{}); err == nil {
		t.Fatal("-old-root on a membership proof accepted")
	}
	_ = pubkey
}

// verify-proof reads from stdin when given "-".
func TestVerifyProofStdin(t *testing.T) {
	memPath, _, root, _, _ := proofFixture(t)
	data, err := os.ReadFile(memPath)
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = r
	t.Cleanup(func() { os.Stdin = old })
	go func() {
		w.Write(data)
		w.Close()
	}()
	if err := run([]string{"verify-proof", "-q", "-root", root.String(), "-"}, &bytes.Buffer{}); err != nil {
		t.Fatalf("stdin verify: %v", err)
	}
}
