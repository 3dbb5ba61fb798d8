// Package cost implements Section 8, "Cost of Mistrust": message-count
// accounting for exchanges executed directly (two messages), through
// trusted intermediaries (four messages plus notifications), and through
// a single universal trusted intermediary, which makes any exchange
// feasible without indemnities by validating every party's constraints
// before executing atomically.
//
// # Key types
//
//   - Breakdown itemizes a message count (transfers, notifications,
//     collateral movements); DirectTrustCost and IntermediatedFloor price the two
//     ends of the trust spectrum for a Problem, and PlanCost prices an
//     actual synthesized Plan, collateral included.
//   - ChainRow / ChainTable tabulate cost against broker-chain length —
//     the Section 8 scaling illustration.
//   - UniversalOutcome / RunUniversal execute the universal-intermediary
//     protocol and report its cost and final holdings.
//
// # Concurrency and ownership
//
// Everything here is a pure function over immutable inputs returning
// fresh values; there is no package state, no locking and no goroutine
// use.
package cost
