// Package hierarchy implements the "hierarchy of trust" the paper leaves
// as future work (Section 9: "Another interesting extension is trust
// relationships among the trusted intermediaries. A 'hierarchy of trust'
// may allow more completed transactions").
//
// A topology records which intermediaries each principal trusts and
// which intermediaries trust each other. Two principals with no common
// intermediary can still exchange when a chain of intermediaries
// connects their trust sets: the composite escrow hands assets down the
// chain, each hop protected by the trust relation between adjacent
// intermediaries.
//
// The reduction to the paper's own formalism is exact: intermediaries on
// the path become zero-margin broker principals, and every hop is
// mediated by a virtual trusted component played as a persona by the
// hop's trustee (the Section 4.2.3 device). Feasibility, execution,
// verification and simulation then all come from the existing machinery.
//
// # Key types
//
//   - Topology maps principals to the IntermediaryIDs they trust and
//     records pairwise IntermediaryTrust between intermediaries;
//     Topology.Path finds the shortest chain of intermediaries
//     connecting two principals' trust sets.
//   - Topology.Enable rewrites a two-principal purchase into a standard
//     compiled problem whose brokers and personas encode that chain,
//     ready for core.SynthesizeObs.
//
// # Concurrency and ownership
//
// A Topology is plain data: build it, then treat it as read-only.
// Enable does not mutate the Topology or the input exchange and returns
// a fresh Problem per call, so concurrent enablement of different
// exchanges over one shared Topology is safe.
package hierarchy
