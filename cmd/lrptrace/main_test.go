package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lrp/internal/obs"
)

// corpusRow matches a golden-corpus row of TRACES.md's table: the trace
// file name in the first column, its `lrptrace record` flags in the last.
var corpusRow = regexp.MustCompile("^\\| `([a-z0-9_]+\\.lrt)` *\\|.*\\| `(-[^`]*)` *\\|$")

// TestCorpusReRecords re-records every committed corpus trace with the
// flags TRACES.md documents for it and requires the committed bytes.
// Replays alone would not notice an op-history record gained or lost,
// since those records ride outside the checksummed op stream.
func TestCorpusReRecords(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "TRACES.md"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		if m := corpusRow.FindStringSubmatch(line); m != nil {
			flags[m[1]] = m[2]
		}
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "traces", "*.lrt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no corpus traces")
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			args, ok := flags[name]
			if !ok {
				t.Fatalf("TRACES.md documents no generation flags for %s", name)
			}
			out := filepath.Join(t.TempDir(), name)
			if err := cmdRecord(append(strings.Fields(args), "-o", out)); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("re-recording with %q gives %d bytes that differ from the committed %d", args, len(got), len(want))
			}
		})
	}
}

// TestReplayJSONMatchesGolden pins replay -json, the lrpmetrics/v1
// export of a replay machine, to the golden export the root package's
// TestGoldenMetricsJSON holds for the same corpus trace. The replay rate
// gauge carries host time, so it is zeroed first, as that test does.
func TestReplayJSONMatchesGolden(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = cmdReplay([]string{filepath.Join("..", "..", "testdata", "traces", "hashmap_nop_t4.lrt"), "-json"})
	os.Stdout = stdout
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
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
