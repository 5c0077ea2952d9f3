package lrp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lrp/internal/obs"
)

// tinyGeometry is the small-cache machine of TestCutScheduleMatchesCheckCut:
// a 16-line L1, one outstanding persist per thread and an 8 KB LLC, so
// L1 and LLC evictions happen constantly.
func tinyGeometry(c *Config) {
	c.L1Size, c.L1Ways, c.MaxPendingPersists = 1<<10, 2, 1
	c.LLCSize, c.LLCWays, c.LLCBanks = 8<<10, 2, 4
}

// metricsRuns are the runs whose whole lrpmetrics/v1 export
// TestGoldenMetricsJSON pins. Between them they move every registry
// family: RET, epoch advances and overflows, I2 downgrades, stall cycles
// and injected engine stalls (LRP/hashmap, 4-bit epochs, engine stalls
// injected); persists of LLC evictions with no owning core, LLC misses
// and the kv service counters (NOP/kv, tiny geometry); NVM retries and
// giveups, torn lines and quarantined nodes (ARP/queue under every fault
// injector, read and write faults raised so retry budgets run out,
// swept serially); and the trace counters (a NOP trace replayed).
var metricsRuns = []struct {
	name string
	run  func(t *testing.T) *obs.Registry
}{
	{"hashmap_lrp", func(t *testing.T) *obs.Registry {
		cfg := DefaultConfig().WithMechanism(LRP)
		cfg.Cores = 4
		cfg.EpochBits = 4
		cfg.Faults = FaultConfig{Seed: 7, StallProb: 0.1}
		cfg.Obs = NewObserver(cfg, false)
		_, m, err := RunWorkload(cfg, Spec{Structure: "hashmap", Threads: 4, InitialSize: 128, OpsPerThread: 40, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return m.Observer().Registry()
	}},
	{"kv_nop_tiny", func(t *testing.T) *obs.Registry {
		cfg := DefaultConfig().WithMechanism(NOP)
		cfg.Cores = 4
		tinyGeometry(&cfg)
		cfg.Obs = NewObserver(cfg, false)
		_, m, err := RunWorkload(cfg, Spec{Structure: "kv", Threads: 4, InitialSize: 96, OpsPerThread: 40, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return m.Observer().Registry()
	}},
	{"queue_arp_faults", func(t *testing.T) *obs.Registry {
		cfg := DefaultConfig().WithMechanism(ARP)
		cfg.Cores = 4
		cfg.TrackHB = true
		cfg.Faults = EnableAllFaults(7)
		cfg.Faults.WriteFaultProb, cfg.Faults.ReadFaultProb = 0.3, 0.3
		cfg.Obs = NewObserver(cfg, false)
		_, m, rec, err := RunRecoverableWorkload(cfg, Spec{Structure: "queue", Threads: 4, InitialSize: 32, OpsPerThread: 20, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SweepCrash(m, SweepOpts{Rec: rec, Workers: 1, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		return m.Observer().Registry()
	}},
	{"replay_hashmap_nop", func(t *testing.T) *obs.Registry {
		path := filepath.Join("testdata", "traces", "hashmap_nop_t4.lrt")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		info, err := ReadTraceInfo(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		o := ReplayOpts{Obs: NewObserver(info.Header.MachineConfig(info.Header.Mechanism), false)}
		if _, err := ReplayTrace(bytes.NewReader(raw), o); err != nil {
			t.Fatal(err)
		}
		return o.Obs.Registry()
	}},
}

// hostTimeGauge reports whether a gauge carries host time, which no two
// runs share: the profiler's per-phase nanoseconds and the replay rate.
func hostTimeGauge(name string) bool {
	return name == "trace/replay_ops_per_sec" || strings.HasPrefix(name, "host/") && strings.HasSuffix(name, "_ns")
}

// TestGoldenMetricsJSON pins the whole lrpmetrics/v1 export of each of
// metricsRuns byte-for-byte against testdata/golden/metrics_<run>.json,
// with only the host-time gauges zeroed. Every counter, gauge and
// histogram the machine, the tooling and the kv service write is in
// these files, all-zero entries included, so a change to how any of
// them is counted shows up here. Regenerate deliberately with
//
//	go test -run TestGoldenMetricsJSON -update-golden .
func TestGoldenMetricsJSON(t *testing.T) {
	for _, r := range metricsRuns {
		t.Run(r.name, func(t *testing.T) {
			doc := r.run(t).Export()
			for i := range doc.Metrics {
				if m := &doc.Metrics[i]; m.Kind == obs.KindGauge.String() && hostTimeGauge(m.Name) {
					m.Value = 0
				}
			}
			b, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "metrics_"+r.name+".json", string(b)+"\n")
		})
	}
}
