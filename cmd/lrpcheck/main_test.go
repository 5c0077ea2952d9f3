package main

import (
	"testing"

	"lrp"
)

// TestVerdict: an RP-enforcing mechanism fails on any inconsistency the
// sweep reports — a dirty recovery walk included — while the known gaps
// of the non-RP mechanisms are reported without failing.
func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name  string
		k     lrp.Mechanism
		sweep lrp.SweepReport
		ok    bool
	}{
		{"LRP clean", lrp.LRP, lrp.SweepReport{Boundaries: 10, WalksRun: 10}, true},
		{"LRP dirty walk", lrp.LRP, lrp.SweepReport{DirtyWalks: 1}, false},
		{"SB RP violation", lrp.SB, lrp.SweepReport{RPBad: 1}, false},
		{"BB dlin violation", lrp.BB, lrp.SweepReport{DLinBad: 1}, false},
		{"ARP dirty walk", lrp.ARP, lrp.SweepReport{DirtyWalks: 1}, true},
		{"NOP clean", lrp.NOP, lrp.SweepReport{}, true},
	} {
		if msg, ok := verdict(tc.k, &tc.sweep); ok != tc.ok {
			t.Errorf("%s: verdict ok=%v (%q), want %v", tc.name, ok, msg, tc.ok)
		}
	}
}
