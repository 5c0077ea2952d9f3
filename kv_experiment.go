package lrp

import (
	"fmt"

	"lrp/internal/stats"
	"lrp/internal/workload"
)

// kvThreadLadder is the thread axis of the kv grid: quarter, half and
// full machine width, deduplicated and never below 1.
func kvThreadLadder(threads int) []int {
	var out []int
	for _, t := range []int{threads / 4, threads / 2, threads} {
		if t < 1 {
			t = 1
		}
		if len(out) == 0 || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	return out
}

// kvSpec builds the kv workload spec for one grid row.
func (o ExperimentOpts) kvSpec(skew string, threads int) Spec {
	s := o.spec("kv")
	s.Threads = threads
	s.KV = KVParams{Skew: skew}
	return s
}

// KVGrid is the KV-service comparison: the production-shaped workload
// (multi-tenant get/set/del/cas/scan service over hashmap+skiplist
// shards) swept across key-popularity skews and thread counts, with
// execution time normalized to NOP per row. The paper's five
// microbenchmark structures stress one data structure each; this grid
// is the "memcached-shaped" composition of two of them behind a single
// service API, where LRP's lazy persistence has both hot-key release
// chains (zipfian CAS traffic) and long read runs (scans) to hide
// flushes under.
func KVGrid(o ExperimentOpts) (*Table, error) {
	o = o.withDefaults()
	ks := o.rpKinds()
	ladder := kvThreadLadder(o.Threads)

	var rows [][]string
	for _, skew := range workload.KVSkews {
		for _, th := range ladder {
			rows = append(rows, []string{skew, fmt.Sprintf("%d", th)})
		}
	}
	t := stats.NewTable("KV service: execution time normalized to No-Persistency",
		append([]string{"skew", "threads"}, kindNames(ks[1:])...)...)
	err := o.workloadGrid(t, rows, len(ks), func(r, c int) cell {
		skew, th := workload.KVSkews[r/len(ladder)], ladder[r%len(ladder)]
		return cell{
			label: fmt.Sprintf("kv/%s/t%d/%s", skew, th, ks[c]),
			cfg:   o.config(ks[c], false),
			spec:  o.kvSpec(skew, th),
		}
	}, ratios)
	t.AddNote("execution time normalized to NOP (volatile); lower is better")
	p := KVParams{}.Normalized(o.size("kv"))
	t.AddNote("tenants=%d keys/tenant=%d mix=get%d/set%d/del%d/cas%d/scan%d ops/thread=%d seed=%d",
		p.Tenants, p.KeysPerTenant, p.GetPct, p.SetPct, p.DelPct, p.CASPct, p.ScanPct, o.Ops, o.Seed)
	return t, err
}
