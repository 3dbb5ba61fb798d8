package model

import "fmt"

// This file is the model half of the incremental-analysis path (the
// sequencing half is sequencing.Patch): a structural differ over two
// problems that classifies an edit by how much of the derived analysis
// it can invalidate. The classification is deliberately conservative —
// anything the differ cannot prove local is structural, and structural
// edits fall back to the full pipeline — so a wrong Delta can cost
// speed but never correctness.

// DiffKind classifies how far apart two problems are, from the
// incremental analyzer's point of view.
type DiffKind int

const (
	// DiffIdentical: no analysis-relevant field differs; the base
	// analysis applies verbatim.
	DiffIdentical DiffKind = iota
	// DiffPatchable: the party list and every exchange's endpoints are
	// unchanged, so the sequencing graph keeps its node set and edge
	// numbering; only edge attributes (red marks, persona flags),
	// conjunction membership, and schedule-level inputs (amounts, items,
	// constraints) may differ.
	DiffPatchable
	// DiffStructural: the edit changes the node set — parties added or
	// removed, exchanges added, removed, or rewired to different
	// endpoints. Incremental analysis must fall back to a full run.
	DiffStructural
)

// String names the kind the way the service's counters and the
// X-Trustd-Incremental header talk about it.
func (k DiffKind) String() string {
	switch k {
	case DiffIdentical:
		return "identical"
	case DiffPatchable:
		return "patchable"
	case DiffStructural:
		return "structural"
	default:
		return fmt.Sprintf("diffkind(%d)", int(k))
	}
}

// Delta is the analysis-relevant difference between a base problem and
// an edit of it. For a patchable delta, the touched sets below are
// supersets of what actually changed: the patcher recomputes red sets,
// personas, and conjunction membership only for the listed parties and
// trusts the base for everything else.
type Delta struct {
	Kind DiffKind
	// Reason names the first structural difference found, empty
	// otherwise.
	Reason string

	// Retuned lists exchange indices whose bundles or red override
	// changed (endpoints unchanged).
	Retuned []int
	// RedPrincipals lists principals whose red-edge inputs changed:
	// retuned own exchanges, or LimitedFunds/Endowment edits.
	RedPrincipals []PartyID
	// PersonaTrusteds lists trusted components whose persona may have
	// flipped because an adjacent principal's direct-trust declarations
	// changed.
	PersonaTrusteds []PartyID
	// SplitPrincipals lists principals whose conjunction membership may
	// have changed because an indemnity covering one of their exchanges
	// was added or removed.
	SplitPrincipals []PartyID
	// ConstraintsChanged and NameChanged do not touch the sequencing
	// graph; they matter only to verification and rendering, which read
	// the edited problem directly.
	ConstraintsChanged bool
	NameChanged        bool
}

// Diff classifies edited against base. Both should be the problems of
// compiled values; the differ itself only reads the declaration-level
// fields.
func Diff(base, edited *Problem) Delta {
	if base == nil || edited == nil {
		return Delta{Kind: DiffStructural, Reason: "missing problem"}
	}
	var d Delta
	addParty := func(list *[]PartyID, q PartyID) {
		for _, have := range *list {
			if have == q {
				return
			}
		}
		*list = append(*list, q)
	}

	if len(base.Parties) != len(edited.Parties) {
		return Delta{Kind: DiffStructural, Reason: fmt.Sprintf("party count %d → %d", len(base.Parties), len(edited.Parties))}
	}
	for i := range base.Parties {
		bp, ep := base.Parties[i], edited.Parties[i]
		if bp.ID != ep.ID || bp.Role != ep.Role {
			return Delta{Kind: DiffStructural, Reason: fmt.Sprintf("party %d: %s/%v → %s/%v", i, bp.ID, bp.Role, ep.ID, ep.Role)}
		}
		if (bp.LimitedFunds != ep.LimitedFunds || bp.Endowment != ep.Endowment) && bp.Role.IsPrincipal() {
			// Funds feed the poor-principal red rule; trusted components
			// are conduits, so their funds never reach the graph.
			addParty(&d.RedPrincipals, bp.ID)
		}
	}

	if len(base.Exchanges) != len(edited.Exchanges) {
		return Delta{Kind: DiffStructural, Reason: fmt.Sprintf("exchange count %d → %d", len(base.Exchanges), len(edited.Exchanges))}
	}
	for i := range base.Exchanges {
		be, ee := &base.Exchanges[i], &edited.Exchanges[i]
		if be.Principal != ee.Principal || be.Trusted != ee.Trusted {
			return Delta{Kind: DiffStructural, Reason: fmt.Sprintf("exchange %d rewired: %s—%s → %s—%s",
				i, be.Principal, be.Trusted, ee.Principal, ee.Trusted)}
		}
		if !bundleEqual(be.Gives, ee.Gives) || !bundleEqual(be.Gets, ee.Gets) || be.RedOverride != ee.RedOverride {
			d.Retuned = append(d.Retuned, i)
			// Bundles feed the resale and poor-principal rules; the
			// override is a red mark by fiat. All three are per-principal.
			addParty(&d.RedPrincipals, be.Principal)
		}
	}

	// A changed trust declaration can flip the persona of any trusted
	// component adjacent to a mentioned principal (PersonaOf quantifies
	// over the principals at that component, Section 4.2.3).
	if changed := trustSymdiff(base.DirectTrust, edited.DirectTrust); len(changed) > 0 {
		var affected []PartyID
		for _, dcl := range changed {
			addParty(&affected, dcl.Truster)
			addParty(&affected, dcl.Trustee)
		}
		for _, e := range edited.Exchanges {
			for _, q := range affected {
				if e.Principal == q {
					addParty(&d.PersonaTrusteds, e.Trusted)
					break
				}
			}
		}
	}

	// An indemnity added or removed re-splits the covered exchange's
	// principal conjunction (Section 6).
	for _, off := range indemnitySymdiff(base.Indemnities, edited.Indemnities) {
		if off.Covers < 0 || off.Covers >= len(edited.Exchanges) {
			return Delta{Kind: DiffStructural, Reason: fmt.Sprintf("indemnity covers unknown exchange %d", off.Covers)}
		}
		addParty(&d.SplitPrincipals, edited.Exchanges[off.Covers].Principal)
	}

	d.ConstraintsChanged = !constraintsEqual(base.Constraints, edited.Constraints)
	d.NameChanged = base.Name != edited.Name

	if len(d.Retuned) > 0 || len(d.RedPrincipals) > 0 || len(d.PersonaTrusteds) > 0 ||
		len(d.SplitPrincipals) > 0 || d.ConstraintsChanged || d.NameChanged {
		d.Kind = DiffPatchable
	}
	return d
}

func bundleEqual(a, b Bundle) bool {
	if a.Amount != b.Amount || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// trustSymdiff returns the declarations present in exactly one of the
// two lists (multiset difference, both directions). Quadratic, but
// trust lists are tiny.
func trustSymdiff(a, b []TrustDecl) []TrustDecl {
	var out []TrustDecl
	count := func(list []TrustDecl, d TrustDecl) int {
		n := 0
		for _, have := range list {
			if have == d {
				n++
			}
		}
		return n
	}
	for _, d := range a {
		if count(a, d) != count(b, d) {
			out = append(out, d)
		}
	}
	for _, d := range b {
		if count(b, d) != count(a, d) {
			out = append(out, d)
		}
	}
	return out
}

// indemnitySymdiff is trustSymdiff for indemnity offers.
func indemnitySymdiff(a, b []IndemnityOffer) []IndemnityOffer {
	var out []IndemnityOffer
	count := func(list []IndemnityOffer, off IndemnityOffer) int {
		n := 0
		for _, have := range list {
			if have == off {
				n++
			}
		}
		return n
	}
	for _, off := range a {
		if count(a, off) != count(b, off) {
			out = append(out, off)
		}
	}
	for _, off := range b {
		if count(b, off) != count(a, off) {
			out = append(out, off)
		}
	}
	return out
}

func constraintsEqual(a, b []Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
