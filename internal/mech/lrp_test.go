package mech

import (
	"testing"
	"testing/quick"

	"lrp/internal/cache"
	"lrp/internal/isa"
)

// dirty builds a scanned L1 line: pending writes from epoch minEpoch,
// with an unpersisted release if released.
func dirty(n int, minEpoch uint32, released bool) *cache.Line {
	return &cache.Line{Addr: isa.Addr(n * isa.LineSize), MinEpoch: minEpoch, Pending: true, Release: released}
}

func TestBuildScheduleFigure4(t *testing.T) {
	// The paper's Figure 4: persisting Release(F2) at epoch 2 must first
	// persist only-written lines CLa (epoch 0), CLb (epoch 1), CLd
	// (epoch 0), then released CLc (epoch 1), then the trigger CLe.
	cla := dirty(1, 0, false)
	clb := dirty(2, 1, false)
	clc := dirty(3, 1, true)
	cld := dirty(4, 0, false)
	cle := dirty(5, 2, true)
	var s lrpSchedule
	s.build(cle, []*cache.Line{cle, cld, clc, clb, cla})
	if len(s.writes) != 3 || s.writes[0] != cla || s.writes[1] != clb || s.writes[2] != cld {
		t.Fatalf("writes = %v", s.writes)
	}
	if len(s.releases) != 2 || s.releases[0] != clc || s.releases[1] != cle {
		t.Fatalf("releases = %v", s.releases)
	}
}

func TestBuildScheduleSkipsNewerEpochs(t *testing.T) {
	trigger := dirty(1, 3, true)
	newer := dirty(2, 3, false)  // same epoch: after the release
	newest := dirty(3, 7, false) // newer epoch
	newerRel := dirty(4, 5, true)
	var s lrpSchedule
	s.build(trigger, []*cache.Line{newer, newest, newerRel})
	if len(s.writes) != 0 || len(s.releases) != 1 || s.releases[0] != trigger {
		t.Fatalf("schedule = %+v", s)
	}
}

// Properties of the persist-engine schedule: every scanned line with an
// older epoch is included exactly once, writes are in address order,
// releases in (epoch, address) order, the trigger is last, and nothing
// with a newer/equal epoch leaks in.
func TestBuildScheduleProperty(t *testing.T) {
	var s lrpSchedule // reused across cases, as the engine reuses it
	f := func(epochs []uint8, relBits []bool, trigEpoch uint8) bool {
		if trigEpoch == 0 {
			trigEpoch = 1
		}
		trigger := dirty(1000, uint32(trigEpoch), true)
		var scanned []*cache.Line
		for i, e := range epochs {
			// Scan order differs from address order.
			rel := i < len(relBits) && relBits[i]
			scanned = append(scanned, dirty(len(epochs)-i, uint32(e), rel))
		}
		s.build(trigger, scanned)
		// Trigger last.
		if s.releases[len(s.releases)-1] != trigger {
			return false
		}
		for i := 1; i < len(s.writes); i++ {
			if s.writes[i].Addr <= s.writes[i-1].Addr {
				return false
			}
		}
		for i := 1; i < len(s.releases)-1; i++ {
			a, b := s.releases[i-1], s.releases[i]
			if b.MinEpoch < a.MinEpoch || b.MinEpoch == a.MinEpoch && b.Addr <= a.Addr {
				return false
			}
		}
		// Membership: exactly the older-epoch lines.
		want := map[*cache.Line]bool{}
		for _, l := range scanned {
			if l.MinEpoch < trigger.MinEpoch {
				want[l] = true
			}
		}
		got := map[*cache.Line]bool{}
		for _, l := range s.writes {
			if l.Released() || got[l] {
				return false
			}
			got[l] = true
		}
		for _, l := range s.releases[:len(s.releases)-1] {
			if !l.Released() || got[l] {
				return false
			}
			got[l] = true
		}
		if len(got) != len(want) {
			return false
		}
		for l := range want {
			if !got[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
