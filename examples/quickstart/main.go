// Quickstart: specify the paper's Example 1 in the exchange DSL, analyse
// it, print the recovered execution sequence, and execute it on the
// simulated network.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"trustseq/internal/core"
	"trustseq/internal/dsl"
	"trustseq/internal/model"
	"trustseq/internal/sim"
)

const spec = `
// A consumer buys a document from a producer through a broker.
// Consumer and broker share trusted intermediary t1; broker and
// producer share t2. Nobody trusts anybody else directly.
problem quickstart {
    consumer c
    broker   b
    producer p
    trusted  t1
    trusted  t2

    exchange c with b via t1 { c gives $100; b gives doc "whitepaper" }
    exchange b with p via t2 { b gives $80;  p gives doc "whitepaper" }
}
`

func main() {
	builder, err := dsl.Load(spec)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	problem, err := model.Compile(builder)
	if err != nil {
		log.Fatalf("compile: %v", err)
	}

	plan, err := core.SynthesizeObs(problem, nil)
	if err != nil {
		log.Fatalf("synthesize: %v", err)
	}
	if !plan.Feasible {
		log.Fatalf("unexpectedly infeasible:\n%s", plan.Reduction.Impasse())
	}

	fmt.Println("feasible — the protocol that protects every participant:")
	fmt.Print(plan.ExecutionSequence())

	if err := plan.Verify(); err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Println("\nverified: no participant is ever at risk of losing assets")

	res, err := sim.Run(plan, sim.Options{Seed: 7, Jitter: 3})
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	fmt.Printf("\nsimulated on the network: completed=%v in %d messages, %d ticks\n",
		res.Completed(), res.Messages, res.Duration)
	fmt.Printf("consumer holds: %v\n", res.Balances["c"])
	fmt.Printf("broker holds:   %v (margin earned: $20)\n", res.Balances["b"])
	fmt.Printf("producer holds: %v\n", res.Balances["p"])
}
