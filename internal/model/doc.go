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
//     Validate checks structural invariants and compiles the dense
//     working state the engines iterate over (the ActionTable).
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
//     rules) read. The first accessor call on a problem never validated
//     validates it, and so fixes its table as Validate does.
//   - State is the unordered set of executed actions, a bitset over its
//     problem's ActionTable: it holds only actions the problem defines,
//     and Add of any other fails with a *ForeignActionError. The
//     acceptability rules (Acceptable, AcceptableAssets) are implemented
//     once, over a State's slots; the safety engine's execution keeps
//     its executed actions in a State too.
//
// # Concurrency and ownership
//
// A Problem is plain data with no interior locking. Validated and
// compiled are one state: Validate checks the problem and publishes its
// action table, and nothing else writes the table. Engines never write a
// compiled problem — their entry points call Compile, which on a
// compiled problem only reads — so a problem validated once (dsl.Load,
// or Validate by its builder) may be shared by any number of goroutines
// (sweep workers, the trustd service). A builder that mutates a problem
// calls Validate again before the next analysis: mutate, then Validate.
// Compile and the accessors see an append to any of the problem's slices
// and validate again; an edit in place, such as a changed price, is read
// through the stale table until Validate.
package model
