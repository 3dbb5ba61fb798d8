package indemnity_test

import (
	"fmt"

	"trustseq/internal/indemnity"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// ExampleGreedy reproduces the Figure 7 minimal indemnification: the two
// most expensive pieces are covered, the cheapest never is, and the $70
// total beats the $90 of the naive ordering.
func ExampleGreedy() {
	res, err := indemnity.Greedy(model.MustCompile(paperex.Figure7()))
	if err != nil {
		panic(err)
	}
	fmt.Println("feasible:", res.Feasible)
	fmt.Println("total:", res.Total)
	for _, sp := range res.Splits {
		fmt.Printf("%s posts %v\n", sp.Offer.By, sp.Amount)
	}
	// Output:
	// feasible: true
	// total: $70
	// b3 posts $30
	// b2 posts $40
}
