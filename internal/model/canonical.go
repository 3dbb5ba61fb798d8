package model

import "encoding/binary"

// AppendCanonical appends the canonical encoding of p to b and returns
// the extended buffer, in the style of the append built-in: every field
// that can influence an analysis verdict, in declaration order, as
// fixed-width little-endian integers, length-prefixed strings and one
// byte per bool. Declaration order is semantically meaningful: exchange
// indices appear in traces, and indemnity offers address exchanges by
// index. The service's problem digest and the simulator's checkpoint
// hash this encoding.
//
// When spill is not nil, AppendCanonical hands it the buffer each time
// the buffer holds SpillSize bytes or more, and continues with the
// buffer spill returns. A caller that hashes the encoding passes a spill that writes
// to the hash and returns b[:0], so a population's megabytes of
// encoding never sit in memory at once.
func AppendCanonical(b []byte, p *Problem, spill func([]byte) []byte) []byte {
	b = appendStr(b, p.Name)
	b = appendU64(b, uint64(len(p.Parties)))
	for _, pa := range p.Parties {
		b = appendStr(b, string(pa.ID))
		b = appendU64(b, uint64(pa.Role))
		b = appendBool(b, pa.LimitedFunds)
		b = appendU64(b, uint64(pa.Endowment))
		b = spillFull(b, spill)
	}
	b = appendU64(b, uint64(len(p.Exchanges)))
	for _, x := range p.Exchanges {
		b = appendStr(b, string(x.Principal))
		b = appendStr(b, string(x.Trusted))
		b = appendBundle(b, x.Gives)
		b = appendBundle(b, x.Gets)
		b = appendBool(b, x.RedOverride)
		b = spillFull(b, spill)
	}
	b = appendU64(b, uint64(len(p.DirectTrust)))
	for _, d := range p.DirectTrust {
		b = appendStr(b, string(d.Truster))
		b = appendStr(b, string(d.Trustee))
		b = spillFull(b, spill)
	}
	b = appendU64(b, uint64(len(p.Indemnities)))
	for _, off := range p.Indemnities {
		b = appendStr(b, string(off.By))
		b = appendU64(b, uint64(off.Covers))
		b = appendStr(b, string(off.Via))
		b = appendU64(b, uint64(off.Amount))
		b = spillFull(b, spill)
	}
	b = appendU64(b, uint64(len(p.Constraints)))
	for _, c := range p.Constraints {
		b = appendAction(b, c.Before)
		b = appendAction(b, c.After)
		b = spillFull(b, spill)
	}
	return b
}

// SpillSize is the buffered length past which AppendCanonical calls
// its spill function.
const SpillSize = 2 << 10

// spillFull hands b to spill once it holds SpillSize bytes.
func spillFull(b []byte, spill func([]byte) []byte) []byte {
	if spill != nil && len(b) >= SpillSize {
		return spill(b)
	}
	return b
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
