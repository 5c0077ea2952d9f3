package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-check compares
// with the program's own metric lists.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSelfCheck runs every workload at tiny size, untraced and traced, and
// checks that every declared metric is printed with its unit, that no job
// failed, and that BENCHMARK.json declares exactly what the program prints.
func TestSelfCheck(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	sameDefs(t, "end_to_end", bf.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", bf.PerLayer, perLayer())

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 7, seconds: 1, trace: traced, tiny: true, spansDir: t.TempDir()}
			var out bytes.Buffer
			if err := run(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v %d of %d jobs failed:\n%s",
					w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func sameDefs(t *testing.T, section string, got []struct{ Name, Unit string }, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("BENCHMARK.json %s has %d metrics, the program %d", section, len(got), len(want))
		return
	}
	for i, d := range want {
		if got[i].Name != d.name || got[i].Unit != d.unit {
			t.Errorf("BENCHMARK.json %s[%d] = %s (%s), program %s (%s)", section, i, got[i].Name, got[i].Unit, d.name, d.unit)
		}
	}
}

// TestFig5TableMatchesLibrary pins the benchmark's Figure 5 cell matrix to
// lrp.Fig5: the same cells must render the same table.
func TestFig5TableMatchesLibrary(t *testing.T) {
	f := newFig5(fig5Opts(params{seed: 3, tiny: true}))
	out, err := f.job(func() {})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reference(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out.fp, "\n"+f.ref) {
		t.Errorf("benchmark table:\n%s\nlrp.Fig5:\n%s", out.fp, f.ref)
	}
}

// TestScalerTimes checks that each segment is scaled by the mean of the
// reference runs on either side of it.
func TestScalerTimes(t *testing.T) {
	var s scaler
	s.refs = append(s.refs, refSeconds)
	s.add(0, time.Second)
	s.refs = append(s.refs, 3*refSeconds)
	s.add(0, time.Second)
	s.add(1, 2*time.Second)
	s.refs = append(s.refs, 3*refSeconds)
	raw, scaled := s.times(2)
	want := [][2]float64{{2, 0.5 + 1.0/3}, {2, 2.0 / 3}}
	for i, w := range want {
		if raw[i] != w[0] || math.Abs(scaled[i]-w[1]) > 1e-12 {
			t.Errorf("timing %d: raw %v scaled %v, want %v %v", i, raw[i], scaled[i], w[0], w[1])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.beginJob()
	a := tr.begin("a")
	base := tr.epoch
	tr.add("b", base, base.Add(time.Millisecond))
	tr.end(a)
	tr.endJob()
	// Pin the times so the arithmetic is exact.
	tr.spans[0].start, tr.spans[0].end = 0, int64(10*time.Millisecond)
	tr.spans[1].start, tr.spans[1].end = int64(time.Millisecond), int64(5*time.Millisecond)
	tr.spans[2].start, tr.spans[2].end = int64(2*time.Millisecond), int64(3*time.Millisecond)
	got := tr.selfTimes()
	want := map[string]time.Duration{"job": 6 * time.Millisecond, "a": 3 * time.Millisecond, "b": time.Millisecond}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}
