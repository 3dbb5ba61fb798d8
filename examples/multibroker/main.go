// Multibroker reproduces the paper's hardest worked examples end to end:
// the two-broker conjunction deadlock (Figure 2), its resolution by an
// indemnity account (Section 6), and the three-broker Figure 7 study of
// indemnification orders ($90 vs $70, with the greedy minimum).
//
//	go run ./examples/multibroker
package main

import (
	"fmt"
	"log"

	"trustseq/internal/core"
	"trustseq/internal/indemnity"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

func main() {
	// 1. The deadlock: a consumer wants two documents, each resold by a
	//    different broker; neither broker will buy first.
	example2 := model.MustCompile(paperex.Example2())
	deadlock, err := core.SynthesizeObs(example2, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-broker exchange feasible: %v\n", deadlock.Feasible)
	fmt.Println("impasse:")
	fmt.Println(deadlock.Reduction.Impasse())

	// 2. Resolution: let the indemnity engine find the minimal collateral.
	fix, err := indemnity.Greedy(example2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngreedy indemnification: %s\n", fix)

	repaired := example2.Clone()
	for _, sp := range fix.Splits {
		repaired.Indemnities = append(repaired.Indemnities, sp.Offer)
	}
	plan, err := core.SynthesizeObs(model.MustCompile(repaired), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrepaired exchange feasible: %v — execution sequence:\n", plan.Feasible)
	fmt.Print(plan.ExecutionSequence())
	if err := plan.Verify(); err != nil {
		log.Fatalf("verify: %v", err)
	}

	// 3. Figure 7: the order in which indemnities are offered matters.
	fig7 := model.MustCompile(paperex.Figure7())
	order1, err := indemnity.InOrder(fig7, []int{paperex.Figure7ConsumerDoc1, paperex.Figure7ConsumerDoc2})
	if err != nil {
		log.Fatal(err)
	}
	order2, err := indemnity.InOrder(fig7, []int{paperex.Figure7ConsumerDoc3, paperex.Figure7ConsumerDoc2})
	if err != nil {
		log.Fatal(err)
	}
	greedy, err := indemnity.Greedy(fig7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nFigure 7 (documents priced $10/$20/$30):")
	fmt.Printf("  order #1 — broker1 first:  total %v\n", order1.Total)
	fmt.Printf("  order #2 — broker3 first:  total %v\n", order2.Total)
	fmt.Printf("  greedy (highest cost first, cheapest piece never): total %v\n", greedy.Total)
}
