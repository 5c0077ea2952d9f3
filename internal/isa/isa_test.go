package isa

import (
	"testing"
	"testing/quick"
)

func TestLineGeometry(t *testing.T) {
	cases := []struct {
		addr Addr
		line Addr
	}{
		{0, 0},
		{8, 0},
		{56, 0},
		{64, 64},
		{72, 64},
		{0x1038, 0x1000},
	}
	for _, c := range cases {
		if got := c.addr.Line(); got != c.line {
			t.Errorf("Line(%v) = %v, want %v", c.addr, got, c.line)
		}
	}
}

func TestAligned(t *testing.T) {
	if !Addr(16).Aligned() || Addr(17).Aligned() {
		t.Fatal("Aligned broken")
	}
}

// Property: every word in a line maps back to that line, and the word
// after the last one starts the next line.
func TestLineWordProperty(t *testing.T) {
	f := func(base uint32) bool {
		line := Addr(base).Line()
		for w := 0; w < WordsPerLine; w++ {
			if (line + Addr(w*WordSize)).Line() != line {
				return false
			}
		}
		return (line + Addr(WordsPerLine*WordSize)).Line() == line+LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrderingPredicates(t *testing.T) {
	if Plain.IsAcquire() || Plain.IsRelease() {
		t.Fatal("Plain misclassified")
	}
	if !Acquire.IsAcquire() || Acquire.IsRelease() {
		t.Fatal("Acquire misclassified")
	}
	if Release.IsAcquire() || !Release.IsRelease() {
		t.Fatal("Release misclassified")
	}
	if !AcqRel.IsAcquire() || !AcqRel.IsRelease() {
		t.Fatal("AcqRel misclassified")
	}
}

func TestValidate(t *testing.T) {
	valid := []Op{
		LoadOp(8),
		LoadAcq(16),
		StoreOp(24, 1),
		StoreRel(32, 2),
		CASOp(40, 0, 1, AcqRel),
		CASOp(40, 0, 1, Plain),
	}
	for _, op := range valid {
		if err := op.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", op, err)
		}
	}
	invalid := []Op{
		{Kind: Load, Order: Release, Addr: 8},
		{Kind: Load, Order: AcqRel, Addr: 8},
		{Kind: Store, Order: Acquire, Addr: 8},
		{Kind: Store, Order: AcqRel, Addr: 8},
		{Kind: Load, Addr: 9},
		{Kind: OpKind(3), Addr: 8},
		{Kind: OpKind(200), Addr: 8},
	}
	for _, op := range invalid {
		if err := op.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", op)
		}
	}
}

func TestConstructors(t *testing.T) {
	op := CASOp(8, 3, 4, Release)
	if op.Kind != CAS || op.Expected != 3 || op.Value != 4 || !op.Order.IsRelease() {
		t.Fatalf("CASOp misconstructed: %+v", op)
	}
	if s := StoreRel(8, 9); s.Order != Release || s.Value != 9 {
		t.Fatalf("StoreRel misconstructed: %+v", s)
	}
	if l := LoadAcq(8); l.Order != Acquire {
		t.Fatalf("LoadAcq misconstructed: %+v", l)
	}
}

func TestStrings(t *testing.T) {
	// Smoke-test String methods for coverage of every enum arm.
	for _, s := range []string{
		Load.String(), Store.String(), CAS.String(),
		OpKind(99).String(),
		Plain.String(), Acquire.String(), Release.String(), AcqRel.String(),
		Ordering(99).String(),
		LoadOp(8).String(), StoreOp(8, 1).String(),
		CASOp(8, 0, 1, AcqRel).String(), Op{Kind: OpKind(9)}.String(),
		Addr(0x40).String(),
	} {
		if s == "" {
			t.Fatal("empty String()")
		}
	}
}
