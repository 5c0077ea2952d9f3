package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"lrp/internal/obs"
)

// TestReplayJSONMatchesGolden pins replay -json, the lrpmetrics/v1
// export of a replay machine, to the golden export the root package's
// TestGoldenMetricsJSON holds for the same corpus trace. The replay rate
// gauge carries host time, so it is zeroed first, as that test does.
func TestReplayJSONMatchesGolden(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"replay", filepath.Join("..", "..", "testdata", "traces", "hashmap_nop_t4.lrt"), "-json"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw := stdout.Bytes()
	var doc obs.MetricsJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("replay -json printed more than the export: %v", err)
	}
	for i := range doc.Metrics {
		if m := &doc.Metrics[i]; m.Kind == obs.KindGauge.String() && m.Name == "trace/replay_ops_per_sec" {
			m.Value = 0
		}
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "metrics_replay_hashmap_nop.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != string(want) {
		t.Fatalf("replay -json export differs from metrics_replay_hashmap_nop.json:\n%s", got)
	}
}

// TestFlagsInEveryMode sets every replay flag main.go defines in both
// replay modes. A flag the mode reads must change the output (stdout and
// the files written); any other must fail with an error naming it and
// the mode, and write nothing.
func TestFlagsInEveryMode(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.lrt")
	sample := map[string][]string{
		"mechanism": {"-mechanism", "NOP"}, "all": {"-all"}, "verify": {"-verify"},
		"o": {"-o", out}, "metrics": {"-metrics"}, "json": {"-json"},
	}
	flags := regexp.MustCompile(`fs\.[A-Z]\w*\((?:[^"\n]*?, )?"([a-z-]+)"`).FindAllStringSubmatch(string(src), -1)
	if len(flags) != len(sample) {
		t.Fatalf("main.go defines %d flags, the test samples %d", len(flags), len(sample))
	}
	trace := filepath.Join("..", "..", "testdata", "traces", "queue_lrp_t2.lrt")
	for _, m := range []struct {
		name  string
		base  []string
		reads []string
	}{
		{"replay", []string{"replay", trace}, []string{"mechanism", "all", "verify", "o", "metrics", "json"}},
		{"replay -all", []string{"replay", trace, "-all"}, []string{"verify"}},
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
			if b, rerr := os.ReadFile(out); rerr == nil {
				got.Write(b)
				os.Remove(out)
			}
			switch reads := slices.Contains(m.reads, flag); {
			case reads && err != nil:
				t.Errorf("%v: %v", args, err)
			case reads && got.String() == want.String():
				t.Errorf("%v: -%s does not change the output", args, flag)
			case reads:
			case err == nil || got.Len() > 0:
				t.Errorf("%v: -%s is not read by %s but is accepted", args, flag, m.name)
			case err.Error() != "-"+flag+" is not read by "+m.name:
				t.Errorf("%v: error %q does not name -%s and %s", args, err, flag, m.name)
			}
		}
	}
}
