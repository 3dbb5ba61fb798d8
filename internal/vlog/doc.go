// Package vlog is the verifiable settlement ledger: an append-only,
// hash-chained, Merkle-ized log over settlement and analysis events,
// with offline-checkable proofs. It is the paper's own thesis applied
// to this reproduction — Section 2 argues a trusted intermediary must
// be *explicitly* trusted, and Section 5 obliges it to an auditable
// record; this package turns our audit surfaces (the simulator's
// settlement trace, trustd's analysis results) from "trusted because we
// emit them" into "checkable because anyone can verify them", with no
// daemon, simulator, or network in the loop.
//
// # Key types
//
//   - Log is the append-only log: each record gets a domain-separated
//     SHA-256 leaf hash (RFC 6962 style), a sequential hash-chain head,
//     and a position under an incrementally maintained Merkle root.
//     It stores every complete-subtree hash (about two hashes per
//     leaf), so roots and proofs over any prefix cost O(log n).
//     New is hash-only; NewRetaining also keeps record bytes so served
//     proofs can carry them.
//   - MembershipProof / VerifyMembership prove and check that one
//     record is in the log at index i under root R.
//   - ConsistencyProof / VerifyConsistency prove and check that root R2
//     extends root R1 append-only — the intermediary cannot rewrite
//     history, only extend it.
//   - Envelope is the portable proof document (JSON; hex hashes,
//     base64 record) served by trustd's /v1/proof endpoints and
//     consumed by `trustseq verify-proof`; ParseEnvelope and Verify
//     fail closed on any truncation, bit-flip, reordering, or root
//     mismatch, reporting through the typed error taxonomy
//     (ErrMalformedProof, ErrProofInvalid, ErrRootMismatch,
//     ErrBadSignature, ErrIndexOutOfRange).
//   - Signer attests (size, root) pairs with ed25519 so a client can
//     pin a daemon's key and detect substitution across responses.
//
// # Concurrency and ownership
//
// A Log is single-owner mutable state with no interior locking; the
// simulator builds one per run on the run's own goroutine, and the
// service guards its per-daemon log with its own mutex. The verifiers
// (VerifyMembership, VerifyConsistency, Envelope.Verify) are pure
// functions of their arguments — deterministic, offline, and safe from
// any goroutine.
package vlog
