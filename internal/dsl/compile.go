package dsl

import (
	"fmt"
	"sort"
	"strings"

	"trustseq/internal/model"
)

// Compile performs semantic analysis on a parsed file and builds the
// model problem: the builder, which model.Compile validates.
func Compile(f *File) (*model.Problem, error) {
	p := &model.Problem{Name: f.Name}
	declared := make(map[string]model.Role)
	endowed := make(map[string]bool)

	addParty := func(st PartyStmt) error {
		if _, ok := declared[st.Name]; ok {
			return errf(st.Pos, "party %q already declared", st.Name)
		}
		declared[st.Name] = st.Role
		p.Parties = append(p.Parties, model.Party{ID: model.PartyID(st.Name), Role: st.Role})
		return nil
	}
	partyIdx := func(name string) int {
		for i := range p.Parties {
			if p.Parties[i].ID == model.PartyID(name) {
				return i
			}
		}
		return -1
	}
	requireRole := func(pos Pos, name string, wantTrusted bool) error {
		role, ok := declared[name]
		if !ok {
			return errf(pos, "undeclared party %q", name)
		}
		if wantTrusted && role != model.RoleTrusted {
			return errf(pos, "%q is a %s, expected a trusted component", name, role)
		}
		if !wantTrusted && role == model.RoleTrusted {
			return errf(pos, "%q is a trusted component, expected a principal", name)
		}
		return nil
	}
	// exchangeAt finds the model exchange index for (principal, trusted).
	exchangeAt := func(principal, via string) int {
		for i, e := range p.Exchanges {
			if e.Principal == model.PartyID(principal) && e.Trusted == model.PartyID(via) {
				return i
			}
		}
		return -1
	}

	for _, raw := range f.Stmts {
		switch st := raw.(type) {
		case PartyStmt:
			if err := addParty(st); err != nil {
				return nil, err
			}

		case EndowmentStmt:
			if err := requireRole(st.Pos, st.Party, false); err != nil {
				return nil, err
			}
			if endowed[st.Party] {
				return nil, errf(st.Pos, "duplicate endowment for %q", st.Party)
			}
			endowed[st.Party] = true
			i := partyIdx(st.Party)
			p.Parties[i].LimitedFunds = true
			p.Parties[i].Endowment = st.Amount

		case ExchangeStmt:
			if err := requireRole(st.Pos, st.A, false); err != nil {
				return nil, err
			}
			if err := requireRole(st.Pos, st.B, false); err != nil {
				return nil, err
			}
			if err := requireRole(st.Pos, st.Via, true); err != nil {
				return nil, err
			}
			if st.A == st.B {
				return nil, errf(st.Pos, "exchange between %q and itself", st.A)
			}
			if len(st.Clauses) == 0 || len(st.Clauses) > 2 {
				return nil, errf(st.Pos, "exchange needs 1 or 2 'gives' clauses, found %d", len(st.Clauses))
			}
			bundles := map[string]model.Bundle{
				st.A: {},
				st.B: {},
			}
			seen := make(map[string]bool, 2)
			for _, cl := range st.Clauses {
				if cl.Party != st.A && cl.Party != st.B {
					return nil, errf(cl.Pos, "%q is not a party of this exchange (%s, %s)", cl.Party, st.A, st.B)
				}
				if seen[cl.Party] {
					return nil, errf(cl.Pos, "duplicate 'gives' clause for %q", cl.Party)
				}
				seen[cl.Party] = true
				bundles[cl.Party] = cl.Bundle.Bundle()
			}
			if exchangeAt(st.A, st.Via) >= 0 || exchangeAt(st.B, st.Via) >= 0 {
				return nil, errf(st.Pos, "a party already has an exchange via %q; use a distinct intermediary", st.Via)
			}
			p.Exchanges = append(p.Exchanges,
				model.Exchange{
					Principal: model.PartyID(st.A), Trusted: model.PartyID(st.Via),
					Gives: bundles[st.A], Gets: bundles[st.B],
				},
				model.Exchange{
					Principal: model.PartyID(st.B), Trusted: model.PartyID(st.Via),
					Gives: bundles[st.B], Gets: bundles[st.A],
				},
			)

		case TrustStmt:
			if err := requireRole(st.Pos, st.Truster, false); err != nil {
				return nil, err
			}
			if err := requireRole(st.Pos, st.Trustee, false); err != nil {
				return nil, err
			}
			if st.Truster == st.Trustee {
				return nil, errf(st.Pos, "%q cannot trust itself", st.Truster)
			}
			p.DirectTrust = append(p.DirectTrust, model.TrustDecl{
				Truster: model.PartyID(st.Truster),
				Trustee: model.PartyID(st.Trustee),
			})

		case RedStmt:
			if err := requireRole(st.Pos, st.Party, false); err != nil {
				return nil, err
			}
			if err := requireRole(st.Pos, st.Via, true); err != nil {
				return nil, err
			}
			ei := exchangeAt(st.Party, st.Via)
			if ei < 0 {
				return nil, errf(st.Pos, "no exchange of %q via %q (declare the exchange first)", st.Party, st.Via)
			}
			p.Exchanges[ei].RedOverride = true

		case IndemnifyStmt:
			if err := requireRole(st.Pos, st.By, false); err != nil {
				return nil, err
			}
			if err := requireRole(st.Pos, st.Protected, false); err != nil {
				return nil, err
			}
			if err := requireRole(st.Pos, st.Via, true); err != nil {
				return nil, err
			}
			ei := exchangeAt(st.Protected, st.Via)
			if ei < 0 {
				return nil, errf(st.Pos, "no exchange of %q via %q to cover", st.Protected, st.Via)
			}
			p.Indemnities = append(p.Indemnities, model.IndemnityOffer{
				By:     model.PartyID(st.By),
				Covers: ei,
				Via:    model.PartyID(st.Via),
				Amount: st.Amount,
			})

		case RequireStmt:
			for _, ae := range []ActionExpr{st.Before, st.After} {
				for _, end := range []string{ae.From, ae.To} {
					if _, ok := declared[end]; !ok {
						return nil, errf(ae.Pos, "undeclared party %q in constraint", end)
					}
				}
				if err := ae.Action().Validate(); err != nil {
					return nil, errf(ae.Pos, "invalid constraint action: %v", err)
				}
			}
			p.Constraints = append(p.Constraints, model.Constraint{
				Before: st.Before.Action(),
				After:  st.After.Action(),
			})

		default:
			return nil, errf(raw.Position(), "internal: unknown statement type %T", raw)
		}
	}

	return p, nil
}

// Load parses DSL source and lowers it to a problem in one step.
func Load(src string) (*model.Problem, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// Print renders a problem back into DSL source. It requires every
// trusted component to mediate exactly two exchanges (the paper's
// pairwise model); Section 8's universal-intermediary constructions are
// not expressible as exchange statements.
func Print(p *model.Problem) (string, error) {
	// One pass counts what each trusted component mediates: Print runs on
	// uncompiled problems, where a per-party ExchangesOf would rescan.
	mediated := make(map[model.PartyID]int, len(p.Parties))
	for _, e := range p.Exchanges {
		mediated[e.Trusted]++
	}
	for _, pa := range p.Parties {
		if !pa.IsTrusted() {
			continue
		}
		if n := mediated[pa.ID]; n != 2 {
			return "", fmt.Errorf("dsl: trusted %s mediates %d exchanges; only pairwise problems are expressible", pa.ID, n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "problem %s {\n", p.Name)
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			continue
		}
		fmt.Fprintf(&b, "    %s %s\n", pa.Role, pa.ID)
	}
	for _, pa := range p.Parties {
		if pa.IsTrusted() {
			fmt.Fprintf(&b, "    trusted %s\n", pa.ID)
		}
	}
	b.WriteString("\n")

	emitted := make(map[int]bool, len(p.Exchanges))
	for ei, e := range p.Exchanges {
		if emitted[ei] {
			continue
		}
		partner := -1
		for ej, other := range p.Exchanges {
			if ej == ei || emitted[ej] || other.Trusted != e.Trusted {
				continue
			}
			if other.Gives.Equal(e.Gets) && other.Gets.Equal(e.Gives) {
				partner = ej
				break
			}
		}
		if partner < 0 {
			return "", fmt.Errorf("dsl: exchange %d via %s has no pairwise counterpart; not expressible", ei, e.Trusted)
		}
		emitted[ei], emitted[partner] = true, true
		o := p.Exchanges[partner]
		fmt.Fprintf(&b, "    exchange %s with %s via %s { %s gives %s; %s gives %s }\n",
			e.Principal, o.Principal, e.Trusted,
			e.Principal, bundleDSL(e.Gives), o.Principal, bundleDSL(o.Gives))
	}

	var extras []string
	for _, pa := range p.Parties {
		if pa.LimitedFunds {
			extras = append(extras, fmt.Sprintf("    endowment %s %s", pa.ID, pa.Endowment))
		}
	}
	for _, d := range p.DirectTrust {
		extras = append(extras, fmt.Sprintf("    trust %s -> %s", d.Truster, d.Trustee))
	}
	for ei, e := range p.Exchanges {
		if e.RedOverride {
			extras = append(extras, fmt.Sprintf("    red %s via %s", e.Principal, e.Trusted))
		}
		_ = ei
	}
	for _, c := range p.Constraints {
		extras = append(extras, fmt.Sprintf("    require %s before %s",
			actionDSL(c.Before), actionDSL(c.After)))
	}
	for _, off := range p.Indemnities {
		line := fmt.Sprintf("    indemnify %s covers %s via %s",
			off.By, p.Exchanges[off.Covers].Principal, off.Via)
		if off.Amount != 0 {
			line += fmt.Sprintf(" amount %s", off.Amount)
		}
		extras = append(extras, line)
	}
	if len(extras) > 0 {
		b.WriteString("\n")
		sort.Strings(extras)
		for _, line := range extras {
			b.WriteString(line)
			b.WriteString("\n")
		}
	}
	b.WriteString("}\n")
	return b.String(), nil
}

func actionDSL(a model.Action) string {
	switch a.Kind {
	case model.ActionPay:
		return fmt.Sprintf("pay %s -> %s %s", a.From, a.To, a.Amount)
	case model.ActionGive:
		return fmt.Sprintf("give %s -> %s doc %s", a.From, a.To, quote(a.Item))
	default:
		return fmt.Sprintf("notify %s -> %s", a.From, a.To)
	}
}

// quoter escapes exactly the runes the lexer reads as escapes or a
// string's end, so quote's literal lexes back to the item name.
var quoter = strings.NewReplacer(`"`, `\"`, `\`, `\\`, "\n", `\n`, "\t", `\t`)

func quote(it model.ItemID) string {
	return `"` + quoter.Replace(string(it)) + `"`
}

func bundleDSL(b model.Bundle) string {
	var parts []string
	if b.Amount != 0 {
		parts = append(parts, b.Amount.String())
	}
	for _, it := range b.Items {
		parts = append(parts, "doc "+quote(it))
	}
	if len(parts) == 0 {
		return "nothing"
	}
	return strings.Join(parts, " + ")
}
