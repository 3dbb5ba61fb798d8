package saga

import (
	"errors"
	"strings"
	"testing"

	"trustseq/internal/ledger"
	"trustseq/internal/model"
	"trustseq/internal/paperex"
)

func TestRunAllForward(t *testing.T) {
	t.Parallel()
	var log []string
	mk := func(name string) Step {
		return Step{
			Name:       name,
			Forward:    func() error { log = append(log, name); return nil },
			Compensate: func() error { log = append(log, "undo-"+name); return nil },
		}
	}
	out := Run([]Step{mk("a"), mk("b"), mk("c")})
	if !out.Succeeded() || out.Completed != 3 {
		t.Fatalf("outcome = %+v", out)
	}
	if strings.Join(log, ",") != "a,b,c" {
		t.Fatalf("log = %v", log)
	}
}

func TestRunCompensatesInReverse(t *testing.T) {
	t.Parallel()
	var log []string
	mk := func(name string, fail bool) Step {
		return Step{
			Name: name,
			Forward: func() error {
				if fail {
					return ErrRefused
				}
				log = append(log, name)
				return nil
			},
			Compensate: func() error { log = append(log, "undo-"+name); return nil },
		}
	}
	out := Run([]Step{mk("a", false), mk("b", false), mk("c", true)})
	if out.Succeeded() {
		t.Fatalf("saga succeeded through a refused step")
	}
	if !out.CleanlyRolledBack() || out.Compensated != 2 {
		t.Fatalf("outcome = %+v", out)
	}
	if strings.Join(log, ",") != "a,b,undo-b,undo-a" {
		t.Fatalf("log = %v (LIFO compensation expected)", log)
	}
	if !errors.Is(out.ForwardErr, ErrRefused) {
		t.Fatalf("ForwardErr = %v", out.ForwardErr)
	}
}

func TestRunStuckCompensation(t *testing.T) {
	t.Parallel()
	steps := []Step{
		{
			Name:       "pay",
			Forward:    func() error { return nil },
			Compensate: func() error { return ErrRefused }, // holder won't give it back
		},
		{
			Name:    "deliver",
			Forward: func() error { return ErrRefused },
		},
	}
	out := Run(steps)
	if out.CleanlyRolledBack() {
		t.Fatalf("rollback reported clean despite refusal")
	}
	if len(out.CompensationErrs) != 1 {
		t.Fatalf("compensation errors = %v", out.CompensationErrs)
	}
	if !strings.Contains(out.String(), "stuck") {
		t.Errorf("String = %q", out.String())
	}
}

func TestRunNilForward(t *testing.T) {
	t.Parallel()
	out := Run([]Step{{Name: "broken"}})
	if out.Succeeded() || out.Completed != 0 {
		t.Fatalf("outcome = %+v", out)
	}
}

// E12, saga half: an Example 1 exchange expressed as a saga of direct
// transfers. With cooperative parties, failure mid-way rolls back
// cleanly. With a defecting customer who refuses to return the document,
// compensation is stuck — the saga model presumes cooperation that the
// paper's setting does not grant.
func TestExchangeSagaCooperativeVsDefecting(t *testing.T) {
	t.Parallel()
	build := func(customerReturns bool, producerDelivers bool) Outcome {
		p := paperex.Example1()
		book := ledger.New(model.MustCompile(p))
		steps := []Step{
			{
				Name:       "producer ships to broker",
				Forward:    func() error { return book.Transfer("p", "b", model.Goods("d")) },
				Compensate: func() error { return book.Transfer("b", "p", model.Goods("d")) },
			},
			{
				Name:    "broker ships to consumer",
				Forward: func() error { return book.Transfer("b", "c", model.Goods("d")) },
				Compensate: func() error {
					if !customerReturns {
						return ErrRefused
					}
					return book.Transfer("c", "b", model.Goods("d"))
				},
			},
			{
				Name: "consumer pays broker",
				Forward: func() error {
					return book.Transfer("c", "b", model.Cash(paperex.RetailPrice))
				},
				Compensate: func() error {
					return book.Transfer("b", "c", model.Cash(paperex.RetailPrice))
				},
			},
			{
				Name: "broker pays producer",
				Forward: func() error {
					if !producerDelivers {
						return ErrRefused // stand-in for a late failure
					}
					return book.Transfer("b", "p", model.Cash(paperex.WholesalePrice))
				},
			},
		}
		return Run(steps)
	}

	// Cooperative rollback: late failure, everything compensates.
	out := build(true, false)
	if !out.CleanlyRolledBack() {
		t.Fatalf("cooperative rollback not clean: %+v", out)
	}
	// Defecting customer: the document cannot be recovered.
	out = build(false, false)
	if out.CleanlyRolledBack() {
		t.Fatalf("rollback clean despite the customer keeping the document")
	}
	// Full success path.
	out = build(true, true)
	if !out.Succeeded() || out.Completed != 4 {
		t.Fatalf("success path = %+v", out)
	}
}
