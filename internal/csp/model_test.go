package csp

import (
	"strings"
	"testing"
)

func TestConstraintViolation(t *testing.T) {
	c := Constraint{Terms: []Term{{1, 0}, {1, 1}, {1, 2}}, Op: EQ, RHS: 1}
	cases := []struct {
		assign []bool
		want   int
	}{
		{[]bool{false, false, false}, 1},
		{[]bool{true, false, false}, 0},
		{[]bool{true, true, false}, 1},
		{[]bool{true, true, true}, 2},
	}
	for _, cse := range cases {
		if got := c.Violation(cse.assign); got != cse.want {
			t.Errorf("EQ violation(%v) = %d, want %d", cse.assign, got, cse.want)
		}
	}

	le := Constraint{Terms: []Term{{1, 0}, {1, 1}}, Op: LE, RHS: 1}
	if le.Violation([]bool{true, true}) != 1 || le.Violation([]bool{false, false}) != 0 {
		t.Error("LE violation wrong")
	}
	ge := Constraint{Terms: []Term{{1, 0}, {1, 1}}, Op: GE, RHS: 1}
	if ge.Violation([]bool{false, false}) != 1 || ge.Violation([]bool{true, false}) != 0 {
		t.Error("GE violation wrong")
	}
	neg := Constraint{Terms: []Term{{1, 0}, {-1, 1}}, Op: LE, RHS: 0}
	if neg.Violation([]bool{true, false}) != 1 || neg.Violation([]bool{true, true}) != 0 {
		t.Error("negative coefficient violation wrong")
	}
}

func TestProblemAddValidation(t *testing.T) {
	p := NewProblem()
	v := p.AddVar()
	p.AddHard([]Term{{1, v}}, EQ, 1, "t")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on undeclared variable")
		}
	}()
	p.AddHard([]Term{{1, 99}}, EQ, 1, "bad")
}

func TestSoftWeightValidation(t *testing.T) {
	p := NewProblem()
	v := p.AddVar()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-positive soft weight")
		}
	}()
	p.AddSoft([]Term{{1, v}}, GE, 1, 0, "bad")
}

func TestEvalAndFeasible(t *testing.T) {
	p := NewProblem()
	a, b := p.AddVar(), p.AddVar()
	p.AddHard([]Term{{1, a}, {1, b}}, EQ, 1, "h")
	p.AddSoft([]Term{{1, a}}, GE, 1, 3, "s")

	hv, sp, viol := p.Eval([]bool{false, true})
	if hv != 0 || sp != 3 || len(viol) != 0 {
		t.Errorf("eval = %d,%d,%v", hv, sp, viol)
	}
	if !p.Feasible([]bool{false, true}) {
		t.Error("should be feasible")
	}
	hv, sp, viol = p.Eval([]bool{true, true})
	if hv != 1 || sp != 0 || len(viol) != 1 {
		t.Errorf("eval = %d,%d,%v", hv, sp, viol)
	}
	if p.Feasible([]bool{true, true}) {
		t.Error("should be infeasible")
	}
}

func TestConstraintString(t *testing.T) {
	p := NewProblem()
	a, b := p.AddVar(), p.AddVar()
	c := Constraint{Terms: []Term{{1, a}, {-2, b}}, Op: LE, RHS: 1, Tag: "demo"}
	s := c.String()
	for _, want := range []string{"x0", "2·x1", "<= 1", "[demo]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	soft := Constraint{Terms: []Term{{1, a}}, Op: GE, RHS: 1, Weight: 2}
	if !strings.Contains(soft.String(), "soft w=2") {
		t.Errorf("soft String() = %q", soft.String())
	}
}

func TestOpString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" || Op(9).String() != "?" {
		t.Error("op strings wrong")
	}
}
