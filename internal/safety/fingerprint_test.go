package safety

import (
	"testing"

	"trustseq/internal/gen"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// Fingerprint128 must be injective exactly where Fingerprint is: two
// executions of the same problem share a packed fingerprint iff they
// share the string fingerprint.
func TestFingerprint128MatchesString(t *testing.T) {
	t.Parallel()
	for name, p := range paperex.All() {
		execs := []*Exec{}
		seenStr := map[string][2]uint64{}
		base := NewExec(model.MustCompile(p))
		if err := base.ForceCompletionsAll(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		execs = append(execs, base)
		// Enumerate a breadth of states: every single deposit, then every
		// pair, from the saturated base.
		for ei := range p.Exchanges {
			next := base.Clone()
			ok := true
			for _, d := range model.DepositActions(p.Exchanges[ei]) {
				if next.Has(d) {
					continue
				}
				if err := next.Apply(d); err != nil {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if err := next.ForceCompletionsAll(); err != nil {
				continue
			}
			execs = append(execs, next)
			for ej := ei + 1; ej < len(p.Exchanges); ej++ {
				nn := next.Clone()
				ok := true
				for _, d := range model.DepositActions(p.Exchanges[ej]) {
					if nn.Has(d) {
						continue
					}
					if err := nn.Apply(d); err != nil {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if err := nn.ForceCompletionsAll(); err != nil {
					continue
				}
				execs = append(execs, nn)
			}
		}
		for _, x := range execs {
			fp, ok := x.Fingerprint128()
			if !ok {
				t.Fatalf("%s: problem unexpectedly too large to pack", name)
			}
			s := x.Fingerprint()
			if prev, seen := seenStr[s]; seen {
				if prev != fp {
					t.Errorf("%s: same string fingerprint %q, different packed %v vs %v", name, s, prev, fp)
				}
			} else {
				seenStr[s] = fp
			}
		}
		// Distinct strings must pack distinctly (injectivity).
		packed := map[[2]uint64]string{}
		for s, fp := range seenStr {
			if other, dup := packed[fp]; dup && other != s {
				t.Errorf("%s: strings %q and %q collide on packed fingerprint %v", name, s, other, fp)
			}
			packed[fp] = s
		}
	}
}

// Problems beyond 128 packed bits must report ok=false rather than a
// truncated (and thus collision-prone) fingerprint.
func TestFingerprint128Overflow(t *testing.T) {
	t.Parallel()
	p := gen.Parallel(65, 5) // 130 exchanges: 260 bits, far past the packing limit
	x := NewExec(model.MustCompile(p))
	if _, ok := x.Fingerprint128(); ok {
		t.Fatal("expected overflow for a 130-exchange problem")
	}
}
