package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"lrp/internal/trace"
)

// corpusRow matches a golden-corpus row of TRACES.md's table: the trace
// file name in the first column, its `lrpsim` flags in the last.
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
			if err := run(append(strings.Fields(args), "-record", out), io.Discard, io.Discard); err != nil {
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

// definedFlags lists the flags main.go defines, read from its source so a
// new flag cannot be left out of the mode tables below.
func definedFlags(t *testing.T) []string {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`fs\.[A-Z]\w*\((?:[^"\n]*?, )?"([a-z-]+)"`).FindAllStringSubmatch(string(src), -1) {
		names = append(names, m[1])
	}
	return names
}

// invoke runs the command in-process with its files in dir and returns
// its stdout followed by every file it left there, and its stderr.
func invoke(dir string, args []string) (out, errOut string, err error) {
	var stdout, stderr bytes.Buffer
	err = run(args, &stdout, &stderr)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		b, _ := os.ReadFile(filepath.Join(dir, e.Name()))
		stdout.WriteString("\n--- " + e.Name() + "\n")
		stdout.Write(b)
		os.Remove(filepath.Join(dir, e.Name()))
	}
	return stdout.String(), stderr.String(), err
}

// TestFlagsInEveryMode sets every flag in every mode. A flag the mode
// reads must change the output; -parallel must leave it identical and
// -pprof must add only its stderr line; any other flag must fail with
// an error naming it and the mode.
func TestFlagsInEveryMode(t *testing.T) {
	dir := t.TempDir()
	sample := map[string][]string{
		"experiment": {"-experiment", "fig6"}, "run": {"-run", "hashmap"},
		"mechanism": {"-mechanism", "BB"}, "threads": {"-threads", "3"}, "cores": {"-cores", "32"},
		"ops": {"-ops", "6"}, "size": {"-size", "40"}, "readpct": {"-readpct", "50"},
		"opwork": {"-opwork", "50"}, "scale": {"-scale", "0.03"}, "seed": {"-seed", "9"},
		"parallel": {"-parallel", "1"}, "uncached": {"-uncached"},
		"record": {"-record", filepath.Join(dir, "rec.lrt")}, "hist": {"-hist"},
		"trace": {"-trace", filepath.Join(dir, "trace.json")}, "metrics": {"-metrics"},
		"json": {"-json"}, "perf": {"-perf"}, "pprof": {"-pprof", "127.0.0.1:0"},
		"tenants": {"-tenants", "2"}, "keys": {"-keys", "20"}, "skew": {"-skew", "uniform"},
		"theta": {"-theta", "500"}, "hotkeypct": {"-hotkeypct", "30"}, "hotoppct": {"-hotoppct", "50"},
		"mix": {"-mix", "40,40,5,10,5"}, "minval": {"-minval", "2"}, "maxval": {"-maxval", "4"},
		"scanlen": {"-scanlen", "3"},
	}
	flags := definedFlags(t)
	if len(flags) != len(sample) {
		t.Fatalf("main.go defines %d flags, the test samples %d", len(flags), len(sample))
	}
	small := []string{"-threads", "2", "-ops", "5", "-size", "32"}
	// Every -run base records a trace, so flags that shape only the
	// machine, such as -cores, show in the trace header.
	rec := []string{"-record", filepath.Join(dir, "base.lrt")}
	runReads := []string{"mechanism", "threads", "cores", "ops", "size", "opwork", "seed", "uncached",
		"hist", "trace", "metrics", "json", "perf"}
	kvReads := append([]string{"tenants", "keys", "skew", "mix", "minval", "maxval", "scanlen"}, runReads...)
	kv := append([]string{"-run", "kv", "-ops", "30"}, append(small, rec...)...)
	runErr := map[string]string{"run": "-experiment is not read by -run hashmap"}
	for _, m := range []struct {
		name  string
		base  []string
		reads []string          // flags that change the output
		errs  map[string]string // the error a flag gets, where it names another flag
		args  map[string][]string
	}{
		{name: "-run hashmap", base: append([]string{"-run", "hashmap"}, append(small, rec...)...),
			reads: append([]string{"readpct"}, runReads...)},
		{name: "-run queue", base: append([]string{"-run", "queue"}, append(small, rec...)...),
			reads: runReads},
		{name: "-run kv", base: kv, reads: append([]string{"theta"}, kvReads...)},
		{name: "-run kv", base: append([]string{"-skew", "hotspot"}, kv...),
			reads: append([]string{"hotkeypct", "hotoppct"}, kvReads...)},
		{name: "-experiment fig6", base: append([]string{"-experiment", "fig6", "-scale", "0.02"}, small[:4]...),
			reads: []string{"threads", "ops", "scale", "seed", "metrics", "parallel"}, errs: runErr},
		{name: "-experiment config", base: []string{"-experiment", "config"},
			reads: []string{"metrics"}, errs: runErr,
			args: map[string][]string{"metrics": append([]string{"-metrics", "-scale", "0.02"}, small[:4]...)}},
	} {
		want, _, err := invoke(dir, m.base)
		if err != nil {
			t.Fatalf("%v: %v", m.base, err)
		}
		for _, flag := range flags {
			if slices.Contains(m.base, "-"+flag) {
				continue // it defines the mode
			}
			args, ok := m.args[flag]
			if !ok {
				args = sample[flag]
			}
			args = append(slices.Clone(m.base), args...)
			got, stderr, err := invoke(dir, args)
			reads := slices.Contains(m.reads, flag)
			switch {
			case flag == "parallel" && reads:
				for _, p := range []string{"1", "3"} {
					if got, _, err := invoke(dir, append(slices.Clone(m.base), "-parallel", p)); err != nil || got != want {
						t.Errorf("%v -parallel %s: output differs from the default count (err %v)", m.base, p, err)
					}
				}
			case flag == "pprof":
				if err != nil || got != want || !regexp.MustCompile(`^lrpsim: pprof on http://127\.0\.0\.1:\d+/debug/pprof/\n$`).MatchString(stderr) {
					t.Errorf("%v: stdout changed or stderr is not the one pprof line (err %v):\n%s", args, err, stderr)
				}
			case reads && err != nil:
				t.Errorf("%v: %v", args, err)
			case reads && got == want:
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

// TestSizeZero pins -size's default: without the flag a run starts from
// 4096 elements, and an explicit -size 0 records a run that starts from
// an empty structure. kv's warm-up always sets half its keys, so kv
// rejects -size 0 and writes no file.
func TestSizeZero(t *testing.T) {
	dir := t.TempDir()
	x := filepath.Join(dir, "x.lrt")
	base := []string{"-run", "linkedlist", "-threads", "2", "-ops", "5"}
	var stdout bytes.Buffer
	if err := run(base, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "size            4096\n") {
		t.Fatalf("a run without -size does not start from 4096 elements:\n%s", stdout.String())
	}
	stdout.Reset()
	if err := run(append(base, "-size", "0", "-record", x), &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "size            0\n") {
		t.Fatalf("-size 0 does not start from an empty structure:\n%s", stdout.String())
	}
	f, err := os.Open(x)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Header().Spec.InitialSize; n != 0 {
		t.Fatalf("the trace of a -size 0 run records size %d", n)
	}
	f.Close()
	os.Remove(x)
	err = run([]string{"-run", "kv", "-threads", "2", "-ops", "5", "-size", "0", "-record", x}, io.Discard, io.Discard)
	if want := "-run kv cannot start empty: -size 0"; err == nil || err.Error() != want {
		t.Fatalf("-run kv -size 0: error %v, want %q", err, want)
	}
	if _, err := os.Stat(x); err == nil {
		t.Fatalf("-run kv -size 0 wrote %s", x)
	}
}

// TestIgnoredFlagsFail holds invocations that once exited 0 while a flag
// did nothing: each now fails, naming the first such flag, and writes
// no file.
func TestIgnoredFlagsFail(t *testing.T) {
	dir := t.TempDir()
	x := filepath.Join(dir, "x.lrt")
	for _, tc := range []struct {
		args []string
		err  string
	}{
		{[]string{"-experiment", "config", "-mechanism", "BB", "-skew", "uniform", "-tenants", "9", "-size", "5", "-cores", "64", "-record", x},
			"-cores is not read by -experiment config"},
		{[]string{"-experiment", "config", "-record", x, "-perf", "-uncached"}, "-perf is not read by -experiment config"},
		{[]string{"-experiment", "size", "-scale", "3"}, "-scale is not read by -experiment size"},
		{[]string{"-run", "hashmap", "-threads", "2", "-ops", "5", "-skew", "uniform", "-scale", "3", "-parallel", "7"},
			"-parallel is not read by -run hashmap"},
		{[]string{"-run", "hashmap", "-experiment", "fig5"}, "-experiment is not read by -run hashmap"},
		{[]string{"-run", "hashmap", "-hist"}, "-hist is not read by -run hashmap"},
		{[]string{"-run", "kv", "-hotkeypct", "20"}, "-hotkeypct is not read by -run kv"},
	} {
		if _, _, err := invoke(dir, tc.args); err == nil || err.Error() != tc.err {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.err)
		}
		if _, err := os.Stat(x); err == nil {
			t.Errorf("%v wrote %s", tc.args, x)
		}
	}
}

// TestJSONOwnsStdout: with -json, stdout is the lrpmetrics/v1 document
// alone; the -record and -trace status lines go to stderr.
func TestJSONOwnsStdout(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := run([]string{"-run", "hashmap", "-threads", "4", "-ops", "5", "-size", "64", "-json",
		"-trace", filepath.Join(dir, "t.json"), "-record", filepath.Join(dir, "r.lrt")}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Schema string }
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil || doc.Schema != "lrpmetrics/v1" {
		t.Fatalf("stdout is not one lrpmetrics/v1 document (schema %q): %v", doc.Schema, err)
	}
	if !strings.Contains(stderr.String(), "trace recorded") || !strings.Contains(stderr.String(), "trace written to") {
		t.Fatalf("status lines missing from stderr:\n%s", stderr.String())
	}
}
