package model

import (
	"strings"
	"testing"
)

// diffBase is example1 with a trust declaration and an indemnity, so
// every delta category has something to touch.
func diffBase(t *testing.T) *Problem {
	t.Helper()
	p := example1()
	p.DirectTrust = []TrustDecl{{Truster: "c", Trustee: "b"}}
	p.Indemnities = []IndemnityOffer{{By: "b", Covers: 2, Via: "t2", Amount: 5}}
	if _, err := Compile(p); err != nil {
		t.Fatalf("base Compile = %v", err)
	}
	return p
}

func TestDiffIdentical(t *testing.T) {
	t.Parallel()
	base := diffBase(t)
	edited := base.Clone()
	d := Diff(base, edited)
	if d.Kind != DiffIdentical {
		t.Fatalf("Diff of a clone = %v (%+v), want identical", d.Kind, d)
	}
}

func TestDiffPatchableCategories(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name   string
		mutate func(*Problem)
		check  func(t *testing.T, d Delta)
	}{
		{"retune amount", func(p *Problem) {
			p.Exchanges[0].Gives = Cash(101)
			p.Exchanges[1].Gets = Cash(101)
		}, func(t *testing.T, d Delta) {
			if len(d.Retuned) != 2 || d.Retuned[0] != 0 || d.Retuned[1] != 1 {
				t.Errorf("Retuned = %v, want [0 1]", d.Retuned)
			}
			if len(d.RedPrincipals) != 2 {
				t.Errorf("RedPrincipals = %v, want c and b", d.RedPrincipals)
			}
		}},
		{"red override", func(p *Problem) {
			p.Exchanges[2].RedOverride = true
		}, func(t *testing.T, d Delta) {
			if len(d.RedPrincipals) != 1 || d.RedPrincipals[0] != "b" {
				t.Errorf("RedPrincipals = %v, want [b]", d.RedPrincipals)
			}
		}},
		{"limited funds", func(p *Problem) {
			p.Parties[1].LimitedFunds = true
		}, func(t *testing.T, d Delta) {
			if len(d.RedPrincipals) != 1 || d.RedPrincipals[0] != "b" {
				t.Errorf("RedPrincipals = %v, want [b]", d.RedPrincipals)
			}
		}},
		{"trust removed", func(p *Problem) {
			p.DirectTrust = nil
		}, func(t *testing.T, d Delta) {
			// c and b are both mentioned; every trusted adjacent to either
			// is suspect.
			if len(d.PersonaTrusteds) != 2 {
				t.Errorf("PersonaTrusteds = %v, want [t1 t2]", d.PersonaTrusteds)
			}
		}},
		{"indemnity removed", func(p *Problem) {
			p.Indemnities = nil
		}, func(t *testing.T, d Delta) {
			if len(d.SplitPrincipals) != 1 || d.SplitPrincipals[0] != "b" {
				t.Errorf("SplitPrincipals = %v, want [b]", d.SplitPrincipals)
			}
		}},
		{"rename", func(p *Problem) {
			p.Name = "example1b"
		}, func(t *testing.T, d Delta) {
			if !d.NameChanged {
				t.Error("NameChanged not set")
			}
		}},
		{"constraint added", func(p *Problem) {
			p.Constraints = append(p.Constraints, Constraint{
				Before: Pay("c", "t1", 100),
				After:  Give("p", "t2", "d"),
			})
		}, func(t *testing.T, d Delta) {
			if !d.ConstraintsChanged {
				t.Error("ConstraintsChanged not set")
			}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			base := diffBase(t)
			edited := base.Clone()
			tt.mutate(edited)
			d := Diff(base, edited)
			if d.Kind != DiffPatchable {
				t.Fatalf("Kind = %v (reason %q), want patchable", d.Kind, d.Reason)
			}
			tt.check(t, d)
		})
	}
}

func TestDiffStructural(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name   string
		mutate func(*Problem)
		want   string
	}{
		{"party added", func(p *Problem) {
			p.Parties = append(p.Parties, Party{ID: "x", Role: RoleConsumer})
		}, "party count"},
		{"role changed", func(p *Problem) {
			p.Parties[0].Role = RoleBroker
		}, "party 0"},
		{"exchange added", func(p *Problem) {
			p.Exchanges = append(p.Exchanges, Exchange{Principal: "c", Trusted: "t2", Gives: Cash(1), Gets: Cash(1)})
		}, "exchange count"},
		{"exchange rewired", func(p *Problem) {
			p.Exchanges[0].Trusted = "t2"
		}, "rewired"},
		{"nil edited", nil, "missing problem"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			base := diffBase(t)
			var edited *Problem
			if tt.mutate != nil {
				edited = base.Clone()
				tt.mutate(edited)
			}
			d := Diff(base, edited)
			if d.Kind != DiffStructural {
				t.Fatalf("Kind = %v, want structural", d.Kind)
			}
			if !strings.Contains(d.Reason, tt.want) {
				t.Errorf("Reason = %q, want substring %q", d.Reason, tt.want)
			}
		})
	}
}

// The incremental patcher trusts RedExchangesOf to be the exact
// per-principal slice of RedExchanges; this pins that contract.
func TestRedExchangesOfMatchesRedExchanges(t *testing.T) {
	t.Parallel()
	p := example1()
	p.Exchanges[2].RedOverride = true
	p.Parties[1].LimitedFunds = true // broker: resale + poor principal
	c := MustCompile(p)
	whole := c.RedExchanges()
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			continue
		}
		got := c.RedExchangesOf(pa.ID)
		want := whole[pa.ID]
		if len(got) != len(want) {
			t.Fatalf("%s: RedExchangesOf = %v, RedExchanges slice = %v", pa.ID, got, want)
		}
		for idx := range want {
			if !got[idx] {
				t.Errorf("%s: exchange %d red in RedExchanges but not RedExchangesOf", pa.ID, idx)
			}
		}
	}
}
