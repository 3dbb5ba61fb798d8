// Package sim executes synthesized exchange protocols on a simulated
// distributed system: every principal and trusted component is a node
// exchanging messages over a lossless but latency-laden network with a
// virtual clock, deposits carry deadlines, trusted components enforce
// their Section 2.5 guarantees (complete when whole, unwind on expiry),
// and any subset of principals can be replaced by defectors. The
// simulation validates the paper's protection claim (E11): honest
// parties never lose assets, whatever the defectors do — except when a
// defector was *directly trusted* (a persona trustee), which is exactly
// the risk a direct-trust declaration accepts.
//
// # Key types
//
//   - Network is the virtual-time message fabric; Config sets latency,
//     seed and fault injection; Message / MsgKind are the wire
//     vocabulary; Time is the virtual clock.
//   - Node is the behaviour interface; TrustedNode and PrincipalNode are
//     the honest implementations (a PrincipalNode with stopAfter set
//     models a defector that walks away mid-protocol); Recoverable marks
//     nodes that survive crash/restart faults.
//   - FaultPlan / FaultMenu / Partition / CrashEvent describe injected
//     faults; SampleFaultPlan and ChaosOptions derive deterministic
//     plans from a seed; FaultStats and ChaosViolations aggregate and
//     audit outcomes. ReplayBalances recomputes final holdings from the
//     message trace alone, cross-checking the ledger.
//   - Run (run.go) is the one-call wrapper the CLI, service and sweep
//     use: synthesize, wire up nodes, execute, audit.
//
// # Cost per message
//
// A run pays for its messages, not for allocations and string hashes.
// The network copies its party slots from the problem's party order
// with the transit account last, so it, its ledger and the problem's
// model.ActionTable share one slot space; it resolves an ID through the
// table's party index and initialises its nodes in the order of their
// IDs, radix-sorted once as it is built, so a run registers no party by
// ID. Its nodes and their working sets are carved from a few plan-sized
// slabs after one counting pass over the plan's steps. The nodes work in the table's slots, as the plan's
// steps do: scripts, waits, seen and sent sets and escrow logs hold
// slots, and a node sends a slot. The send reads the receiver's party
// slot and the message's Action from the table, and the message carries
// both slots in unexported fields, so delivery, both ledger movements
// and the result state index arrays and nothing looks an ID or an
// Action up; a slot that is no transfer fails at send with
// ErrUndefinedTransfer. The event wheel queues int32 handles into a
// Message arena, the result state is a bitset over the table, and the
// trace, the settlement log and the nodes' working sets are sized from
// the plan. With Options.Obs set, Run times its setup, loop, assemble
// and settlement phases as child spans of its sim.run span and as
// sim.phase.* histograms; without it, it reads no clock.
//
// # Concurrency and ownership
//
// The simulator is deliberately single-threaded: one goroutine owns the
// Network and steps virtual time by draining a deterministic priority
// queue, so a (problem, seed, fault plan) triple always yields an
// identical trace — there is no real concurrency to race. Nodes are
// owned by their Network and must not be shared across simulations.
// Callers get parallelism by running independent simulations on
// independent Networks (the chaos gate and sweep do this), which is safe
// because simulations share only immutable inputs.
package sim
