package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
