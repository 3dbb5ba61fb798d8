// Command trustseq analyses a commercial-exchange specification: it
// parses a .exch DSL file, derives the interaction and sequencing
// graphs, reduces the graph, reports feasibility, prints the recovered
// execution sequence, and optionally proposes a minimal indemnification
// for infeasible exchanges or emits Graphviz DOT renderings.
//
// Usage:
//
//	trustseq [flags] problem.exch
//
//	-seq        print the reduction trace
//	-dot DIR    write interaction/sequencing DOT files into DIR
//	-indemnify  propose a minimal indemnification when infeasible
//	-verify     re-verify the synthesized plan step by step
//	-base FILE  analyse incrementally against this base spec (edit workloads)
//
// The verify-proof subcommand checks a verifiable-log proof envelope
// (as served by trustd's /v1/proof endpoints) entirely offline:
//
//	trustseq verify-proof [-root HEX] [-old-root HEX] [-pubkey HEX] proof.json|-
//
// It exits non-zero on any malformed, truncated, tampered, or
// mismatching proof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"trustseq/internal/core"
	"trustseq/internal/dsl"
	"trustseq/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trustseq:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "verify-proof" {
		return runVerifyProof(args[1:], out)
	}
	fs := flag.NewFlagSet("trustseq", flag.ContinueOnError)
	showTrace := fs.Bool("seq", false, "print the reduction trace")
	dotDir := fs.String("dot", "", "write DOT renderings into this directory")
	proposeIndemnity := fs.Bool("indemnify", false, "propose a minimal indemnification when infeasible")
	verify := fs.Bool("verify", false, "verify the synthesized plan step by step")
	baseFile := fs.String("base", "", "analyse incrementally against this base .exch spec")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: trustseq [flags] problem.exch")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	problem, err := dsl.Load(string(src))
	if err != nil {
		return err
	}
	var plan *core.Plan
	if *baseFile != "" {
		// Edit workloads: synthesize the base spec, then serve the main
		// spec by diff-and-patch. The report bytes are identical to a
		// from-scratch run either way; the outcome note goes to stderr so
		// stdout parity is preserved.
		baseSrc, err := os.ReadFile(*baseFile)
		if err != nil {
			return err
		}
		baseProblem, err := dsl.Load(string(baseSrc))
		if err != nil {
			return fmt.Errorf("base spec %s: %w", *baseFile, err)
		}
		basePlan, err := core.Synthesize(baseProblem)
		if err != nil {
			return fmt.Errorf("base spec %s: %w", *baseFile, err)
		}
		var info core.IncrementalInfo
		plan, info, err = core.SynthesizeIncremental(basePlan, problem, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trustseq: incremental analysis %s (edit %s, frontier %d)\n",
			info.Outcome, info.Kind, info.Frontier)
	} else {
		plan, err = core.Synthesize(problem)
		if err != nil {
			return err
		}
	}

	// The report is derived and rendered by the trustd service's own
	// Report and Text, so the CLI and the daemon stay byte-identical by
	// construction (the parity test in this package re-checks it per
	// example spec).
	report, err := service.RenderText(plan, service.AnalyzeOptions{
		Trace:     *showTrace,
		Indemnify: *proposeIndemnity,
		Verify:    *verify,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, report)

	if *dotDir != "" {
		if err := os.MkdirAll(*dotDir, 0o755); err != nil {
			return err
		}
		writes := map[string]string{
			problem.Name + "-interaction.dot":        plan.Interaction.DOT(),
			problem.Name + "-sequencing.dot":         plan.Sequencing.DOT(nil),
			problem.Name + "-sequencing-reduced.dot": plan.Sequencing.DOT(plan.Reduction.RemovedSet()),
		}
		for name, content := range writes {
			path := filepath.Join(*dotDir, name)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
		}
	}
	return nil
}
