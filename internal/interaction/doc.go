// Package interaction implements the interaction graphs of Section 3:
// the bipartite graph I = (P, T, E) of principals, trusted components,
// and the edges between principals and the intermediaries that carry one
// side of their exchanges. The graph is derived mechanically from a
// model.Compiled and is the input to sequencing-graph construction.
//
// # Key types
//
//   - Graph carries the node sets and Edges plus derived facts the
//     sequencing layer needs: which parties are personas (a principal
//     playing its own trusted component, Section 4.2.3), each party's
//     degree and incident edges, which nodes are isolated, and whether
//     the graph is connected. Personas, degrees and incident edges are
//     read from the problem's model.ActionTable — the one index compiled
//     from the problem — so the graph keeps no adjacency of its own.
//   - Edge ties one side of one pairwise exchange to the intermediary
//     that escrows it.
//   - New is the one constructor; it takes a compiled problem, so it
//     cannot meet an invalid one.
//
// # Concurrency and ownership
//
// A compiled problem is immutable (see package model), so concurrent
// calls of New on one are safe; each call returns a fresh Graph that
// reads it. Graphs are
// immutable after construction and safe for concurrent reads; the
// package holds no locks and starts no goroutines.
package interaction
