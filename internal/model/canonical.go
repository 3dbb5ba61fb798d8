package model

import (
	"crypto/sha256"
	"encoding/binary"
)

// Digest returns the SHA-256 of p's canonical encoding: every field
// that can influence an analysis verdict, in declaration order, as
// fixed-width little-endian integers, length-prefixed strings and one
// byte per bool. Declaration order is semantically meaningful: exchange
// indices appear in traces, and indemnity offers address exchanges by
// index. The encoding streams into the hash through a small buffer, so
// a population's megabytes of it never sit in memory at once. A
// compiled problem memoises it as Compiled.Digest; the service's problem
// digest and the simulator's checkpoint both name a problem by it.
func Digest(p *Problem) [sha256.Size]byte {
	h := sha256.New()
	b := make([]byte, 0, 4<<10)
	// flush hands the buffer to the hash once it holds 2 KiB.
	flush := func() {
		if len(b) >= 2<<10 {
			h.Write(b)
			b = b[:0]
		}
	}
	b = appendStr(b, p.Name)
	b = appendU64(b, uint64(len(p.Parties)))
	for _, pa := range p.Parties {
		b = appendStr(b, string(pa.ID))
		b = appendU64(b, uint64(pa.Role))
		b = appendBool(b, pa.LimitedFunds)
		b = appendU64(b, uint64(pa.Endowment))
		flush()
	}
	b = appendU64(b, uint64(len(p.Exchanges)))
	for _, x := range p.Exchanges {
		b = appendStr(b, string(x.Principal))
		b = appendStr(b, string(x.Trusted))
		b = appendBundle(b, x.Gives)
		b = appendBundle(b, x.Gets)
		b = appendBool(b, x.RedOverride)
		flush()
	}
	b = appendU64(b, uint64(len(p.DirectTrust)))
	for _, d := range p.DirectTrust {
		b = appendStr(b, string(d.Truster))
		b = appendStr(b, string(d.Trustee))
		flush()
	}
	b = appendU64(b, uint64(len(p.Indemnities)))
	for _, off := range p.Indemnities {
		b = appendStr(b, string(off.By))
		b = appendU64(b, uint64(off.Covers))
		b = appendStr(b, string(off.Via))
		b = appendU64(b, uint64(off.Amount))
		flush()
	}
	b = appendU64(b, uint64(len(p.Constraints)))
	for _, c := range p.Constraints {
		b = appendAction(b, c.Before)
		b = appendAction(b, c.After)
		flush()
	}
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte {
	b = appendU64(b, uint64(len(s))) // length-prefix: "ab"+"c" ≠ "a"+"bc"
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBundle(b []byte, x Bundle) []byte {
	b = appendU64(b, uint64(x.Amount))
	b = appendU64(b, uint64(len(x.Items)))
	for _, it := range x.Items { // normalized: sorted, deduplicated
		b = appendStr(b, string(it))
	}
	return b
}

func appendAction(b []byte, a Action) []byte {
	b = appendU64(b, uint64(a.Kind))
	b = appendStr(b, string(a.From))
	b = appendStr(b, string(a.To))
	b = appendStr(b, string(a.Item))
	b = appendU64(b, uint64(a.Amount))
	return appendBool(b, a.Inverse)
}
