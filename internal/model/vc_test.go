package model

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestVCBasics(t *testing.T) {
	v := NewVC(3)
	if v.Get(0) != 0 || v.Get(2) != 0 {
		t.Fatal("new VC not zero")
	}
	var nilVC VC
	if nilVC.Get(5) != 0 {
		t.Fatal("nil VC Get should be zero")
	}
	w := v.WithRelease(1, 4)
	if w.Get(1) != 4 || v.Get(1) != 0 {
		t.Fatal("WithRelease must copy")
	}
	if !w.Covers(v) || v.Covers(w) {
		t.Fatal("Covers broken")
	}
}

func TestVCWithReleaseNoRegress(t *testing.T) {
	v := NewVC(2).WithRelease(0, 5)
	same := v.WithRelease(0, 3)
	if &same[0] != &v[0] {
		t.Fatal("WithRelease with lower index should return receiver")
	}
}

func TestVCJoin(t *testing.T) {
	a := VC{1, 5, 0}
	b := VC{2, 3, 0}
	j := a.Join(b)
	if !slices.Equal(j, VC{2, 5, 0}) {
		t.Fatalf("Join = %v", j)
	}
	// Join with covered operand returns the covering one unchanged.
	c := VC{2, 5, 1}
	if j2 := c.Join(a); &j2[0] != &c[0] {
		t.Fatal("Join should return covering receiver")
	}
	if j3 := a.Join(c); &j3[0] != &c[0] {
		t.Fatal("Join should return covering argument")
	}
}

// Join is a least upper bound: commutative, idempotent, covers both
// operands, and is the smallest clock doing so.
func TestVCJoinLatticeProperty(t *testing.T) {
	gen := func(xs [4]uint8, ys [4]uint8) bool {
		a, b := NewVC(4), NewVC(4)
		for i := 0; i < 4; i++ {
			a[i], b[i] = uint32(xs[i]), uint32(ys[i])
		}
		j := a.Join(b)
		if !j.Covers(a) || !j.Covers(b) {
			return false
		}
		jb := b.Join(a)
		if !slices.Equal(j, jb) {
			return false
		}
		// Minimality: every component equals one of the operands'.
		for i := range j {
			if j[i] != a[i] && j[i] != b[i] {
				return false
			}
		}
		return slices.Equal(j.Join(j), j)
	}
	if err := quick.Check(gen, nil); err != nil {
		t.Fatal(err)
	}
}

// Covers is a partial order: reflexive, antisymmetric, transitive.
func TestVCCoversOrderProperty(t *testing.T) {
	gen := func(xs, ys, zs [3]uint8) bool {
		a, b, c := NewVC(3), NewVC(3), NewVC(3)
		for i := 0; i < 3; i++ {
			a[i], b[i], c[i] = uint32(xs[i]), uint32(ys[i]), uint32(zs[i])
		}
		if !a.Covers(a) {
			return false
		}
		if a.Covers(b) && b.Covers(a) && !slices.Equal(a, b) {
			return false
		}
		if a.Covers(b) && b.Covers(c) && !a.Covers(c) {
			return false
		}
		return true
	}
	if err := quick.Check(gen, nil); err != nil {
		t.Fatal(err)
	}
}
