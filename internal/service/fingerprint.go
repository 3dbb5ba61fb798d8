package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"

	"trustseq/internal/model"
)

// Every content address in the service — the source key, the problem
// digest and the request key — is the first 128 bits of a SHA-256, as a
// [2]uint64 (big-endian words, so FormatDigest prints the hash's hex
// prefix). SHA-256 is collision-resistant: no crafted source or problem
// can alias a resident one, so a cache hit, a coalesced run, a ring
// owner and a log leaf all name the problem they were computed for.

// address128 is the first 128 bits of SHA-256 over b.
func address128(b []byte) [2]uint64 { return prefix128(sha256.Sum256(b)) }

// prefix128 is the first 128 bits of a SHA-256.
func prefix128(sum [sha256.Size]byte) [2]uint64 {
	return [2]uint64{binary.BigEndian.Uint64(sum[:8]), binary.BigEndian.Uint64(sum[8:16])}
}

// The append functions below build requestKey's encoding in the style
// of model.Digest's canonical encoding: fixed-width little-endian
// integers, one byte per bool.

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// problemDigest returns the 128-bit content digest of a compiled
// problem alone: the first 128 bits of its content address
// (model.Compiled's Digest), which covers every field that can
// influence an analysis verdict. The service returns it as
// X-Trustd-Digest, accepts it back in X-Trustd-Base, keys the base-plan
// cache and the ring with it, and writes it into the log leaf.
func problemDigest(c *model.Compiled) [2]uint64 { return prefix128(c.Digest()) }

// ProblemDigest is problemDigest of a builder, without compiling it.
func ProblemDigest(p *model.Problem) [2]uint64 { return prefix128(model.Digest(p)) }

// requestKey derives the cache key for one analysis request from its
// problem digest and every option that shapes the response body, so a
// cache hit can be replayed byte-for-byte.
func requestKey(digest [2]uint64, opts AnalyzeOptions) [2]uint64 {
	var buf [64]byte
	b := appendU64(buf[:0], digest[0])
	b = appendU64(b, digest[1])
	b = appendBool(b, opts.Trace)
	b = appendBool(b, opts.Indemnify)
	b = appendBool(b, opts.Verify)
	b = appendBool(b, opts.CrossCheck)
	b = appendBool(b, opts.Simulate)
	b = appendU64(b, uint64(opts.SimSeed))
	b = appendU64(b, uint64(opts.SimDeadline))
	return address128(b)
}

// sourceKey addresses the source index: the decoded .exch source's
// content address.
func sourceKey(src []byte) [2]uint64 { return address128(src) }

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
