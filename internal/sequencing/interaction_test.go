package sequencing

import (
	"strings"
	"testing"

	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

// Figure 1's interaction graph, as the compiled problem and Build read
// it: three principals and two trusted components, four exchanges, and
// a conjunction node exactly at the internal nodes (degree above one).
func TestInteractionExample1Structure(t *testing.T) {
	t.Parallel()
	c := model.MustCompile(paperex.Example1())
	principals, trusted := 0, 0
	for _, pa := range c.Parties {
		if pa.IsTrusted() {
			trusted++
		} else {
			principals++
		}
	}
	if principals != 3 || trusted != 2 {
		t.Fatalf("partition wrong: %d principals, %d trusted", principals, trusted)
	}
	if len(c.Exchanges) != 4 {
		t.Fatalf("edges = %d", len(c.Exchanges))
	}
	// Degrees per Figure 1: c=1, b=2, p=1, t1=2, t2=2.
	tab := c.ActionTable()
	g := Build(c)
	wantDeg := map[model.PartyID]int{"c": 1, "b": 2, "p": 1, "t1": 2, "t2": 2}
	for id, want := range wantDeg {
		k, _ := tab.PartySlot(id)
		if got := tab.Degree(k); got != want {
			t.Errorf("degree(%s) = %d, want %d", id, got, want)
		}
		if _, internal := g.ConjunctionOf(id); internal != (want > 1) {
			t.Errorf("conjunction at %s = %v, want %v", id, internal, want > 1)
		}
	}
	if got := c.ExchangesOf(paperex.Broker); len(got) != 2 {
		t.Errorf("ExchangesOf(b) = %v", got)
	}
}

// Variant 1's source trusts the broker: the broker plays t2, and its
// commitment at t2 carries the persona flag.
func TestPersonaDetection(t *testing.T) {
	t.Parallel()
	c := model.MustCompile(paperex.Example2Variant1())
	q, ok := c.PersonaOf(paperex.Trusted2)
	if !ok || q != paperex.Broker1 {
		t.Fatalf("PersonaOf(t2) = %v, %v", q, ok)
	}
	if _, ok := c.PersonaOf(paperex.Trusted1); ok {
		t.Fatalf("t1 wrongly a persona")
	}
	g := Build(c)
	for _, cm := range g.Commitments {
		if want := cm.Trusted == paperex.Trusted2 && cm.Principal == paperex.Broker1; cm.PersonaPrincipal != want {
			t.Errorf("commitment %s persona = %v, want %v", cm.Label(), cm.PersonaPrincipal, want)
		}
	}
}

func TestInteractionDOT(t *testing.T) {
	t.Parallel()
	out := InteractionDOT(model.MustCompile(paperex.Example2Variant1()))
	for _, want := range []string{"shape=circle", "shape=square", "played by b1", "style=dashed", "gives $100"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}
