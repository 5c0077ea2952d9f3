package persist

import (
	"testing"
	"testing/quick"

	"lrp/internal/isa"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{NOP: "NOP", SB: "SB", BB: "BB", ARP: "ARP", LRP: "LRP"}
	for k, s := range want {
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
	if Kind(42).String() == "" {
		t.Fatal("unknown kind string")
	}
}

func TestEnforcesRP(t *testing.T) {
	if NOP.EnforcesRP() || ARP.EnforcesRP() {
		t.Fatal("NOP/ARP must not claim RP")
	}
	if !SB.EnforcesRP() || !BB.EnforcesRP() || !LRP.EnforcesRP() {
		t.Fatal("SB/BB/LRP enforce RP")
	}
}

func TestRETBasics(t *testing.T) {
	r := NewRET(4, 3)
	if r.capacity != 4 || r.Len() != 0 || r.AtWatermark() {
		t.Fatal("fresh RET state")
	}
	r.AddAt(0x100, 1, 0)
	r.AddAt(0x200, 2, 0)
	if r.RemoveAt(0x300, 0) {
		t.Fatal("phantom remove")
	}
	if r.AtWatermark() {
		t.Fatal("watermark too eager")
	}
	r.AddAt(0x300, 3, 0)
	if !r.AtWatermark() {
		t.Fatal("watermark missed")
	}
	old, ok := r.Oldest()
	if !ok || old.Line != 0x100 || old.Epoch != 1 {
		t.Fatalf("Oldest = %+v", old)
	}
	if !r.RemoveAt(0x100, 0) || r.RemoveAt(0x100, 0) {
		t.Fatal("RemoveAt")
	}
	if r.Len() != 2 {
		t.Fatal("Len after remove")
	}
	if old, _ := r.Oldest(); old.Line != 0x200 || old.Epoch != 2 {
		t.Fatalf("Oldest after remove = %+v", old)
	}
	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear")
	}
	if _, ok := r.Oldest(); ok {
		t.Fatal("Oldest on empty")
	}
}

func TestRETPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRET(0, 1) },
		func() { NewRET(4, 0) },
		func() { NewRET(4, 5) },
		func() { r := NewRET(2, 2); r.AddAt(1*64, 1, 0); r.AddAt(1*64, 2, 0) }, // duplicate
		func() {
			r := NewRET(1, 1)
			r.AddAt(0, 1, 0)
			r.AddAt(64, 2, 0) // overflow
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRETOldestByEpoch(t *testing.T) {
	r := NewRET(8, 8)
	// Insertion order differs from epoch order after removals.
	r.AddAt(0x100, 5, 0)
	r.AddAt(0x200, 2, 0)
	r.AddAt(0x300, 9, 0)
	old, _ := r.Oldest()
	if old.Line != 0x200 {
		t.Fatalf("Oldest = %+v", old)
	}
}

func TestEpochCounter(t *testing.T) {
	c := NewEpochCounter(8)
	if c.Current() != 0 || c.Max() != 255 {
		t.Fatal("fresh counter")
	}
	e, ov := c.Advance()
	if e != 1 || ov {
		t.Fatalf("first advance: %d %v", e, ov)
	}
	for i := 0; i < 253; i++ {
		c.Advance()
	}
	if c.Current() != 254 {
		t.Fatalf("current = %d", c.Current())
	}
	if e, ov := c.Advance(); e != 255 || ov {
		t.Fatalf("at max: %d %v", e, ov)
	}
	e, ov = c.Advance()
	if e != 1 || !ov {
		t.Fatalf("overflow: %d %v", e, ov)
	}
	c.Reset()
	if c.Current() != 0 {
		t.Fatal("Reset")
	}
}

func TestEpochCounterWidths(t *testing.T) {
	c := NewEpochCounter(2)
	if c.Max() != 3 {
		t.Fatal("Max for 2 bits")
	}
	for _, f := range []func(){
		func() { NewEpochCounter(0) },
		func() { NewEpochCounter(33) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func line(n int) isa.Addr { return isa.Addr(n * isa.LineSize) }

func TestBuildScheduleFigure4(t *testing.T) {
	// The paper's Figure 4: persisting Release(F2) at epoch 2 must first
	// persist only-written lines CLa (epoch 0), CLb (epoch 1), CLd
	// (epoch 0), then released CLc (epoch 1), then the trigger CLe.
	cla := LineRef{Addr: line(1), MinEpoch: 0}
	clb := LineRef{Addr: line(2), MinEpoch: 1}
	clc := LineRef{Addr: line(3), MinEpoch: 1, Released: true}
	cld := LineRef{Addr: line(4), MinEpoch: 0}
	cle := LineRef{Addr: line(5), MinEpoch: 2, Released: true}
	var s Schedule
	BuildScheduleInto(&s, cle, []LineRef{cle, cld, clc, clb, cla})
	if len(s.Writes) != 3 {
		t.Fatalf("writes = %v", s.Writes)
	}
	if len(s.Releases) != 2 || s.Releases[0].Addr != clc.Addr || s.Releases[1].Addr != cle.Addr {
		t.Fatalf("releases = %v", s.Releases)
	}
}

func TestBuildScheduleSkipsNewerEpochs(t *testing.T) {
	trigger := LineRef{Addr: line(1), MinEpoch: 3, Released: true}
	newer := LineRef{Addr: line(2), MinEpoch: 3}  // same epoch: after the release
	newest := LineRef{Addr: line(3), MinEpoch: 7} // newer epoch
	newerRel := LineRef{Addr: line(4), MinEpoch: 5, Released: true}
	var s Schedule
	BuildScheduleInto(&s, trigger, []LineRef{newer, newest, newerRel})
	if len(s.Writes) != 0 || len(s.Releases) != 1 || s.Releases[0].Addr != trigger.Addr {
		t.Fatalf("schedule = %+v", s)
	}
}

// Properties of the persist-engine schedule: every scanned line with an
// older epoch is included exactly once, releases are in epoch order, the
// trigger is last, and nothing with a newer/equal epoch leaks in.
func TestBuildScheduleProperty(t *testing.T) {
	f := func(epochs []uint8, relBits []bool, trigEpoch uint8) bool {
		if trigEpoch == 0 {
			trigEpoch = 1
		}
		trigger := LineRef{Addr: line(1000), MinEpoch: uint32(trigEpoch), Released: true}
		var scanned []LineRef
		for i, e := range epochs {
			rel := i < len(relBits) && relBits[i]
			scanned = append(scanned, LineRef{Addr: line(i), MinEpoch: uint32(e), Released: rel})
		}
		var s Schedule
		BuildScheduleInto(&s, trigger, scanned)
		// Trigger last.
		if s.Releases[len(s.Releases)-1].Addr != trigger.Addr {
			return false
		}
		// Releases sorted by epoch.
		for i := 1; i < len(s.Releases); i++ {
			if s.Releases[i].MinEpoch < s.Releases[i-1].MinEpoch {
				return false
			}
		}
		// Membership: exactly the older-epoch lines.
		want := map[isa.Addr]bool{}
		for _, l := range scanned {
			if l.MinEpoch < trigger.MinEpoch {
				want[l.Addr] = true
			}
		}
		got := map[isa.Addr]bool{}
		for _, l := range s.Writes {
			if l.Released || got[l.Addr] {
				return false
			}
			got[l.Addr] = true
		}
		for _, l := range s.Releases[:len(s.Releases)-1] {
			if !l.Released || got[l.Addr] {
				return false
			}
			got[l.Addr] = true
		}
		if len(got) != len(want) {
			return false
		}
		for a := range want {
			if !got[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
