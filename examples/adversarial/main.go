// Adversarial demonstrates the protection claims under attack: every
// principal of the indemnified two-broker exchange defects at every
// possible point, and the simulator shows that honest parties never lose
// assets — with one deliberate exception, the persona trustee of the
// Section 4.2.3 variant, which shows what extending direct trust to a
// defector costs.
//
//	go run ./examples/adversarial
package main

import (
	"fmt"
	"log"

	"trustseq/internal/core"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
	"trustseq/internal/sim"
)

func main() {
	demoIndemnified()
	demoPersonaBreach()
}

func demoIndemnified() {
	plan, err := core.SynthesizeObs(model.MustCompile(paperex.Example2Indemnified()), nil)
	if err != nil {
		log.Fatal(err)
	}
	principals := []model.PartyID{
		paperex.Consumer, paperex.Broker1, paperex.Broker2, paperex.Source1, paperex.Source2,
	}

	fmt.Println("indemnified two-broker exchange under single defectors:")
	fmt.Println("defector  steps  completed  honest parties whole  penalty paid")
	for _, defector := range principals {
		for steps := 0; steps <= 3; steps++ {
			res, err := sim.Run(plan, sim.Options{
				Seed:      int64(steps),
				Defectors: map[model.PartyID]int{defector: steps},
			})
			if err != nil {
				log.Fatal(err)
			}
			whole := true
			for _, id := range principals {
				if id != defector && !res.AssetsSafeFor(id) {
					whole = false
				}
			}
			penalty := res.State.Has(model.Pay(paperex.Trusted1, paperex.Consumer, 100))
			fmt.Printf("%-8s  %5d  %-9v  %-20v  %v\n",
				defector, steps, res.Completed(), whole, penalty)
		}
	}
}

func demoPersonaBreach() {
	plan, err := core.SynthesizeObs(model.MustCompile(paperex.Example2Variant1()), nil)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(plan, sim.Options{
		Defectors: map[model.PartyID]int{paperex.Broker1: 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nvariant 1 (source1 trusts broker1 directly) with broker1 fully silent:")
	fmt.Printf("  source1 assets safe:  %v   <- the party that extended direct trust\n",
		res.AssetsSafeFor(paperex.Source1))
	for _, id := range []model.PartyID{paperex.Consumer, paperex.Broker2, paperex.Source2} {
		fmt.Printf("  %-7s assets safe:  %v\n", id, res.AssetsSafeFor(id))
	}
	fmt.Println("  trust is a real asset: only the truster is exposed to its trustee")
}
