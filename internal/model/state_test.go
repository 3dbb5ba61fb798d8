package model

import (
	"errors"
	"strings"
	"testing"
)

func TestStateAddHas(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	s := NewState(p)
	a := Pay("c", "t1", 100)
	if s.Has(a) {
		t.Fatalf("empty state has action")
	}
	if err := s.Add(a); err != nil {
		t.Fatalf("Add = %v", err)
	}
	if !s.Has(a) {
		t.Fatalf("state missing added action")
	}
	var foreign *ForeignActionError
	if err := s.Add(a); err == nil || errors.As(err, &foreign) {
		t.Fatalf("duplicate Add = %v, want a duplicate error", err)
	}
	if err := s.Add(Pay("c", "t1", 99)); !errors.As(err, &foreign) {
		t.Fatalf("Add of an undefined pay = %v, want a *ForeignActionError", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStateEqual(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	a, b := Pay("c", "t1", 100), Give("b", "t1", "d")
	s1 := NewState(p, a, b)
	s2 := NewState(p, a)
	if !s1.Equal(NewState(p, b, a)) {
		t.Fatalf("Equal should ignore order")
	}
	if s1.Equal(s2) || s2.Equal(s1) {
		t.Fatalf("Equal on different states")
	}
	// A state of a rebuilt table compares by its actions.
	q := MustCompile(example1())
	if !s1.Equal(NewState(q, a, b)) || s2.Equal(NewState(q, b)) {
		t.Fatalf("Equal across tables compares the wrong sets")
	}
}

func TestStateCloneIndependent(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	s := NewState(p, Pay("c", "t1", 100))
	c := s.Clone()
	c.mustAdd(Give("b", "t1", "d"))
	if s.Len() != 1 || c.Len() != 2 {
		t.Fatalf("Clone shares storage: %d/%d", s.Len(), c.Len())
	}
}

func TestStateDelta(t *testing.T) {
	t.Parallel()
	p := MustCompile(example1())
	pay := Pay("c", "t1", 100)
	give := Give("b", "t1", "d")
	fwd := Give("t1", "c", "d") // t1 forwards the doc (distinct action: from t1)
	s := NewState(p, pay, give, fwd)
	cash, items := s.Delta("t1")
	if cash != 100 {
		t.Errorf("Delta(t1) cash = %v", cash)
	}
	if len(items) != 0 {
		t.Errorf("Delta(t1) items = %v, want net zero", items)
	}
	cash, items = s.Delta("c")
	if cash != -100 || items["d"] != 1 {
		t.Errorf("Delta(c) = %v, %v", cash, items)
	}
	// Compensation nets out.
	s2 := NewState(p, give, give.Compensation())
	cash, items = s2.Delta("b")
	if cash != 0 || len(items) != 0 {
		t.Errorf("Delta(b) after compensation = %v, %v", cash, items)
	}
	cash, items = s2.Delta("t1")
	if cash != 0 || len(items) != 0 {
		t.Errorf("Delta(t1) after compensation = %v, %v", cash, items)
	}
}

func TestStateString(t *testing.T) {
	t.Parallel()
	s := NewState(MustCompile(example1()), Pay("c", "t1", 100), Give("b", "t1", "d"))
	got := s.String()
	if !strings.HasPrefix(got, "{") || !strings.HasSuffix(got, "}") {
		t.Fatalf("String = %q", got)
	}
	if !strings.Contains(got, "give_{b→t1}(d)") || !strings.Contains(got, "pay_{c→t1}($100)") {
		t.Fatalf("String = %q", got)
	}
	// Deterministic ordering: give sorts before pay.
	if strings.Index(got, "give") > strings.Index(got, "pay") {
		t.Fatalf("String not sorted: %q", got)
	}
}
