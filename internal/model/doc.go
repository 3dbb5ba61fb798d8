// Package model defines the action/state formalism of Ketchpel &
// Garcia-Molina's "Making Trust Explicit in Distributed Commerce
// Transactions" (ICDCS 1996), Section 2: principals, trusted components,
// transfer actions (give/pay and their compensations), notifications,
// exchange states as unordered action sets, acceptable-state predicates,
// and ordering constraints.
//
// Everything downstream — interaction graphs, sequencing graphs, protocol
// synthesis, the simulator, and the baselines — is expressed in terms of
// this package.
//
// # Key types
//
//   - Problem is the root aggregate: Parties, Exchanges, DirectTrust,
//     Indemnities and Constraints, exactly as a .exch file declares them.
//     Validate checks structural invariants; Compile (below) derives the
//     dense working state the engines iterate over.
//   - Party / PartyID / Role distinguish principals from trusted
//     components; Exchange is one pairwise swap (Principal, Trusted,
//     Gives, Gets, RedOverride).
//   - Action is a single transfer or notification; Bundle, Money, ItemID
//     and Holding describe what moves.
//   - ActionTable is the compiled problem's one derived index: one slot
//     per distinct action value, each transfer's endpoints resolved to a
//     party slot (money) or a (party, item) cell, and per-party rows of
//     exchanges, personas and conjunction groups that the party
//     accessors (ExchangesOf, PersonaOf, ConjunctionGroups, the red
//     rules) read.
//   - State is the unordered set of executed actions, a bitset over its
//     problem's ActionTable: it holds only actions the problem defines,
//     and Add of any other fails with a *ForeignActionError. The
//     acceptability rules (Acceptable, AcceptableAssets) are implemented
//     once, over a State's slots; the safety engine's execution keeps
//     its executed actions in a State too.
//
// # Concurrency and ownership
//
// A Problem is plain data with no interior locking. The intended
// lifecycle is build → Validate → Compile → share: Compile is idempotent
// but NOT safe to race with itself or with readers, so callers that share
// a Problem across goroutines (sweep workers, the trustd service) must
// call Compile once, before fan-out. After that single compile, the
// Problem and its compiled state are treated as immutable everywhere in
// this repo, and concurrent reads are safe. Mutating a Problem after
// Compile is a contract violation — the compiled arrays would go stale
// silently.
package model
