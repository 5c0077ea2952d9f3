package mech

import "testing"

// TestKindNumbers pins every Kind's number: it is field 0 of a trace
// header, so renumbering a mechanism would make old traces replay under
// the wrong one. The corpus covers only some kinds; this covers all.
func TestKindNumbers(t *testing.T) {
	want := []struct {
		k    Kind
		n    int
		name string
	}{
		{NOP, 0, "NOP"}, {SB, 1, "SB"}, {BB, 2, "BB"}, {ARP, 3, "ARP"},
		{LRP, 4, "LRP"}, {EADR, 5, "eADR"}, {FliTSB, 6, "FliT-SB"},
	}
	if got := len(Kinds()); got != len(want) {
		t.Fatalf("%d kinds registered, want %d", got, len(want))
	}
	for _, w := range want {
		if int(w.k) != w.n || w.k.String() != w.name {
			t.Errorf("%v = %d, want %s = %d", w.k, int(w.k), w.name, w.n)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for i, s := range KindNames() {
		k := Kind(i)
		if k.String() != s {
			t.Fatalf("%v", k)
		}
		parsed, err := ParseKind(s)
		if err != nil || parsed != k {
			t.Fatalf("ParseKind(%q) = %v, %v", s, parsed, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind should reject unknown names")
	}
	if Kind(42).String() == "" || Kind(42).Valid() || Kind(-1).Valid() {
		t.Fatal("unregistered kind")
	}
}

func TestEnforcesRP(t *testing.T) {
	if NOP.EnforcesRP() || ARP.EnforcesRP() {
		t.Fatal("NOP/ARP must not claim RP")
	}
	for _, k := range []Kind{SB, BB, LRP, EADR, FliTSB} {
		if !k.EnforcesRP() {
			t.Fatalf("%v enforces RP", k)
		}
	}
}
