// Package cluster turns a set of trustd processes into one logical
// analysis service: a consistent-hash ring routes each compiled-problem
// digest to exactly one owner node, and a lightweight gossip layer
// keeps every node's view of the membership converging without a
// coordinator. Gossip carries membership only: a cache miss always runs
// the engines on the node that signs the result, and a proxied answer
// is the owner's own, anchored in the owner's signed log.
//
// The package has two halves with a deliberate seam between them:
//
//   - Ring (ring.go) is a pure, immutable value: a sorted array of
//     virtual-node points hashed from the member addresses. Any two
//     nodes that agree on the live member set compute byte-identical
//     rings, which is what lets every node route client requests
//     independently. Joins and leaves move only the ~1/N key range
//     adjacent to the affected member's virtual nodes; everything else
//     stays put.
//
//   - Node (gossip.go) is the mutable runtime: an incarnation-numbered
//     membership table disseminated by HTTP push-pull rounds. Each
//     round the node picks a random peer, POSTs its member table to
//     /cluster/gossip, and merges the peer's table from the response.
//     Liveness is age-based: every entry carries "milliseconds since
//     somebody last heard from this node", the minimum age wins on
//     merge, and each node locally derives alive → suspect → dead from
//     its merged age against the configured thresholds. A member is
//     dropped from the ring only when it goes dead, so a transient blip
//     (suspect) does not reshuffle key ownership. Incarnations — stamped
//     from the wall clock at process start — let a restarted process
//     supersede its own stale entry immediately.
//
// Concurrency: the membership table is guarded by one mutex; the ring
// is republished through an atomic pointer so the per-request Owner
// lookup never takes the lock.
package cluster
