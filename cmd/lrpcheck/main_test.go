package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"slices"
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

// TestFlagsInEveryMode sets every flag main.go defines in every fault
// mode. A flag the mode reads must change the output, -parallel must
// leave it identical, and any other flag must fail with an error naming
// it and the mode.
func TestFlagsInEveryMode(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	sample := map[string][]string{
		"mechanism": {"-mechanism", "ARP"}, "structure": {"-structure", "hashmap"}, "threads": {"-threads", "3"},
		"size": {"-size", "40"}, "ops": {"-ops", "12"}, "seed": {"-seed", "9"}, "dlin": {"-dlin"},
		"json": {"-json"}, "parallel": {"-parallel", "1"}, "faults": {"-faults"}, "fault-seed": {"-fault-seed", "9"},
		"tear-prob": {"-tear-prob", "0.3"}, "write-fault-prob": {"-write-fault-prob", "0.2"},
		"read-fault-prob": {"-read-fault-prob", "0.2"}, "stall-prob": {"-stall-prob", "0.3"},
		"stall-max": {"-stall-max", "50"},
	}
	flags := regexp.MustCompile(`fs\.[A-Z]\w*\((?:[^"\n]*?, )?"([a-z-]+)"`).FindAllStringSubmatch(string(src), -1)
	if len(flags) != len(sample) {
		t.Fatalf("main.go defines %d flags, the test samples %d", len(flags), len(sample))
	}
	base := []string{"-threads", "2", "-size", "32", "-ops", "10"}
	sweep := []string{"mechanism", "structure", "threads", "size", "ops", "seed", "dlin", "json", "parallel"}
	probs := []string{"tear-prob", "write-fault-prob", "read-fault-prob", "stall-prob"}
	for _, m := range []struct {
		name  string
		base  []string
		reads []string
		errs  map[string]string // the error a flag gets, where it names another flag
	}{
		{"a sweep with no fault injector", base, append(append([]string{"faults"}, probs...), sweep...), nil},
		{"-faults", append([]string{"-faults"}, base...), append([]string{"fault-seed"}, sweep...), nil},
		{"a sweep with no stall injector", append([]string{"-tear-prob", "0.5"}, base...),
			append(append([]string{"fault-seed"}, probs...), sweep...),
			map[string]string{"faults": "-tear-prob is not read by -faults"}},
		{"a sweep with a stall injector", append([]string{"-stall-prob", "0.5"}, base...),
			append(append([]string{"fault-seed", "stall-max"}, probs...), sweep...),
			map[string]string{"faults": "-stall-prob is not read by -faults"}},
	} {
		var want bytes.Buffer
		if err := run(m.base, &want, io.Discard); err != nil {
			t.Fatalf("%v: %v", m.base, err)
		}
		for _, f := range flags {
			flag := f[1]
			if slices.Contains(m.base, "-"+flag) {
				continue // it defines the mode
			}
			args := append(slices.Clone(m.base), sample[flag]...)
			var got bytes.Buffer
			err := run(args, &got, io.Discard)
			reads := slices.Contains(m.reads, flag)
			switch {
			case flag == "parallel":
				for _, p := range []string{"1", "3"} {
					var got bytes.Buffer
					if err := run(append(slices.Clone(m.base), "-parallel", p), &got, io.Discard); err != nil || got.String() != want.String() {
						t.Errorf("%v -parallel %s: output differs from the default count (err %v)", m.base, p, err)
					}
				}
			case reads && err != nil:
				t.Errorf("%v: %v", args, err)
			case reads && got.String() == want.String():
				t.Errorf("%v: -%s does not change the output", args, flag)
			case reads:
			case err == nil:
				t.Errorf("%v: -%s is not read by %s but is accepted", args, flag, m.name)
			default:
				msg, ok := m.errs[flag]
				if !ok {
					msg = "-" + flag + " is not read by " + m.name
				}
				if err.Error() != msg {
					t.Errorf("%v: error %q, want %q", args, err, msg)
				}
			}
		}
	}
}
