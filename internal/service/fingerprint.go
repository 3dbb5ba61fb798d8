package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"

	"trustseq/internal/model"
)

// The result cache is content-addressed: two requests that compile to
// the same problem and ask for the same analysis share one cache slot,
// no matter how the source was formatted. The address is a [2]uint64 —
// the same key shape (and final mixing) as the packed-fingerprint memo
// in internal/search — produced by streaming a canonical encoding of
// the compiled problem through two decorrelated FNV-1a accumulators.
// Unlike search's Fingerprint128 (an injective packing of a bounded
// state), this is a 128-bit digest of an unbounded input; a collision
// is astronomically unlikely rather than impossible, which is the
// standard contract for content-addressed caches.

// fp128 accumulates the canonical byte stream. The two lanes use the
// FNV-1a update rule with distinct offset bases so they decorrelate
// from the first byte; the second lane additionally rotates its input,
// so the lanes never agree byte-for-byte.
type fp128 struct {
	a, b uint64
}

const (
	fnvOffset  = 0xcbf29ce484222325
	fnvPrime   = 0x00000100000001b3
	fnvOffset2 = 0x9e3779b97f4a7c15 // splitmix64 increment, arbitrary ≠ lane a
)

func newFP() fp128 { return fp128{a: fnvOffset, b: fnvOffset2} }

func (h *fp128) byte(c byte) {
	h.a = (h.a ^ uint64(c)) * fnvPrime
	h.b = (h.b ^ uint64(c)<<1 ^ uint64(c)>>7) * fnvPrime
}

func (h *fp128) str(s string) {
	h.u64(uint64(len(s))) // length-prefix: "ab"+"c" ≠ "a"+"bc"
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *fp128) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for _, c := range buf {
		h.byte(c)
	}
}

func (h *fp128) i64(v int64) { h.u64(uint64(v)) }

func (h *fp128) bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

// sum applies a final splitmix-style avalanche (the same mixing idea as
// search.fpHash) so low-entropy tails still spread across both words.
func (h *fp128) sum() [2]uint64 {
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	return [2]uint64{mix(h.a ^ h.b<<1), mix(h.b ^ h.a>>1)}
}

func (h *fp128) bundle(b model.Bundle) {
	h.i64(int64(b.Amount))
	h.u64(uint64(len(b.Items)))
	for _, it := range b.Items { // normalized: sorted, deduplicated
		h.str(string(it))
	}
}

func (h *fp128) action(a model.Action) {
	h.u64(uint64(a.Kind))
	h.str(string(a.From))
	h.str(string(a.To))
	h.str(string(a.Item))
	h.i64(int64(a.Amount))
	h.bool(a.Inverse)
}

// problemState digests every field of the compiled problem that can
// influence an analysis verdict, in declaration order (declaration
// order is semantically meaningful: exchange indices appear in traces
// and indemnity offers address exchanges by index). It returns the hash
// state before any option is folded in: state.sum() is the problem
// digest and optionsKey(state, opts) the request key, so one pass
// yields both. The source index stores this state.
func problemState(p *model.Problem) fp128 {
	h := newFP()
	h.str(p.Name)
	h.u64(uint64(len(p.Parties)))
	for _, pa := range p.Parties {
		h.str(string(pa.ID))
		h.u64(uint64(pa.Role))
		h.bool(pa.LimitedFunds)
		h.i64(int64(pa.Endowment))
	}
	h.u64(uint64(len(p.Exchanges)))
	for _, e := range p.Exchanges {
		h.str(string(e.Principal))
		h.str(string(e.Trusted))
		h.bundle(e.Gives)
		h.bundle(e.Gets)
		h.bool(e.RedOverride)
	}
	h.u64(uint64(len(p.DirectTrust)))
	for _, d := range p.DirectTrust {
		h.str(string(d.Truster))
		h.str(string(d.Trustee))
	}
	h.u64(uint64(len(p.Indemnities)))
	for _, off := range p.Indemnities {
		h.str(string(off.By))
		h.u64(uint64(off.Covers))
		h.str(string(off.Via))
		h.i64(int64(off.Amount))
	}
	h.u64(uint64(len(p.Constraints)))
	for _, c := range p.Constraints {
		h.action(c.Before)
		h.action(c.After)
	}
	return h
}

// requestKey derives the cache key for one analysis request: the
// problem digest plus every option that shapes the response body, so a
// cache hit can be replayed byte-for-byte.
func requestKey(p *model.Problem, opts AnalyzeOptions) [2]uint64 {
	return optionsKey(problemState(p), opts)
}

// optionsKey folds the analysis options into a problem-prefixed hash
// state. Taking the state by value lets the analyze path derive the
// problem digest and the request key from one streaming pass.
func optionsKey(h fp128, opts AnalyzeOptions) [2]uint64 {
	h.bool(opts.Trace)
	h.bool(opts.Indemnify)
	h.bool(opts.Verify)
	h.bool(opts.CrossCheck)
	h.bool(opts.Simulate)
	h.i64(opts.SimSeed)
	h.i64(int64(opts.SimDeadline))
	return h.sum()
}

// ProblemDigest returns the 128-bit content digest of the problem alone
// — the base handle of the incremental path. The service returns it as
// X-Trustd-Digest, accepts it back in X-Trustd-Base, and keys the
// base-plan cache with it. The digest only selects a cached base
// candidate; model.Diff then compares the real structures, so even a
// colliding digest cannot corrupt a result — it can only waste a diff.
func ProblemDigest(p *model.Problem) [2]uint64 {
	h := problemState(p)
	return h.sum()
}

// sourceKey addresses the source index: the first 128 bits of SHA-256
// over the decoded .exch source. Unlike the FNV problem digest it is
// collision-resistant, so a crafted source cannot alias a resident one
// and be answered with another problem's result.
func sourceKey(src []byte) [2]uint64 {
	sum := sha256.Sum256(src)
	return [2]uint64{binary.BigEndian.Uint64(sum[:8]), binary.BigEndian.Uint64(sum[8:16])}
}

// FormatDigest renders a digest as the fixed-width 32-hex-character
// form the headers use.
func FormatDigest(d [2]uint64) string {
	return fmt.Sprintf("%016x%016x", d[0], d[1])
}

// ParseDigest parses FormatDigest's output.
func ParseDigest(s string) ([2]uint64, error) {
	if len(s) != 32 {
		return [2]uint64{}, fmt.Errorf("digest must be 32 hex characters, got %d", len(s))
	}
	a, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil {
		return [2]uint64{}, fmt.Errorf("malformed digest: %v", err)
	}
	b, err := strconv.ParseUint(s[16:], 16, 64)
	if err != nil {
		return [2]uint64{}, fmt.Errorf("malformed digest: %v", err)
	}
	return [2]uint64{a, b}, nil
}
