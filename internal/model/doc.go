// Package model defines the action/state formalism of Ketchpel &
// Garcia-Molina's "Making Trust Explicit in Distributed Commerce
// Transactions" (ICDCS 1996), Section 2: principals, trusted components,
// transfer actions (give/pay and their compensations), notifications,
// exchange states as unordered action sets, acceptable-state predicates,
// and ordering constraints.
//
// Everything downstream — sequencing graphs, protocol synthesis, the
// simulator, and the baselines — is expressed in terms of this package;
// the Section 3 interaction graph is the compiled table's rows.
//
// # Key types
//
//   - Problem is the builder: Parties, Exchanges, DirectTrust,
//     Indemnities and Constraints, exactly as a .exch file declares them.
//   - Compiled is what the engines take: Compile checks a private copy
//     of a builder's structural invariants and builds the dense working
//     state the engines iterate over (the ActionTable) and, on first
//     use, its content address (Digest).
//   - Party / PartyID / Role distinguish principals from trusted
//     components; Exchange is one pairwise swap (Principal, Trusted,
//     Gives, Gets, RedOverride).
//   - Action is a single transfer or notification; Bundle, Money, ItemID
//     and Holding describe what moves.
//   - ActionTable is the compiled problem's one derived index: one slot
//     per distinct action value, each transfer's endpoints resolved to a
//     party slot (money) or a (party, item) cell, per-party rows of
//     exchanges, personas and unsplit conjunction groups (Rest), and
//     per-exchange rows of party slots, persona flags and red marks
//     (Red, the red rules of Section 4.1, derived once). The party
//     accessors of a Compiled (ExchangesOf, PersonaOf) and the
//     sequencing graph read them.
//   - State is the unordered set of executed actions, a bitset over its
//     problem's ActionTable: it holds only actions the problem defines,
//     and Add of any other fails with a *ForeignActionError. The
//     acceptability rules (Acceptable, AcceptableAssets) are implemented
//     once, over a State's slots; the safety engine's execution keeps
//     its executed actions in a State too.
//
// # Concurrency and ownership
//
// The lifecycle is build → Compile → analyse; to edit: Clone, edit,
// Compile. A Problem is plain data with no interior locking, owned by
// whoever builds it. Compile deep-copies it, so a Compiled shares no
// memory with its builder: an edit of the builder, in place or by
// append, never reaches a compiled value, its table or its digest.
// Nothing writes a Compiled after Compile (its digest is computed once,
// under a sync.Once), so one compiled problem may be shared by any
// number of goroutines (sweep workers, the trustd service), and every
// engine entry point takes one by type.
package model
