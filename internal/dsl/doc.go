// Package dsl implements the specification language the paper introduces
// for commercial exchange problems ("We introduce a language for
// specifying these commercial exchange problems", Section 1): a lexer,
// recursive-descent parser, semantic analysis, a compiler to
// model.Problem, and a pretty-printer that round-trips.
//
// A problem file looks like:
//
//	problem example1 {
//	    consumer c
//	    broker   b
//	    producer p
//	    trusted  t1
//	    trusted  t2
//
//	    exchange c with b via t1 { c gives $100; b gives doc "d" }
//	    exchange b with p via t2 { b gives $80;  p gives doc "d" }
//
//	    // optional clauses:
//	    // endowment b $80
//	    // trust p -> b
//	    // red b via t2
//	    // indemnify b covers c via t1 amount $100
//	}
//
// # Key types
//
//   - File is the parsed AST root; Stmt is the statement interface with
//     one concrete type per clause (PartyStmt, ExchangeStmt, TrustStmt,
//     RedStmt, EndowmentStmt, IndemnifyStmt, RequireStmt, ...).
//   - Load lexes, parses and lowers source in one call; LoadReader
//     does the same from an io.Reader with a 1 MiB cap (the trustd
//     request path); Compile lowers a File to a model.Problem, a builder
//     its caller checks with model.Compile; Print renders a Problem back
//     to canonical source.
//   - Errors carry line/column positions; the lexer and parser are
//     fuzz-tested to never panic on arbitrary bytes.
//
// # Concurrency and ownership
//
// Every entry point is a pure function: no package-level state, no
// retained references to inputs, a fresh AST and Problem per call. Any
// number of Load/LoadReader/Print calls may run concurrently — the
// trustd service parses requests on whatever goroutine the HTTP server
// schedules, with no synchronization.
package dsl
