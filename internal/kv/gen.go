// Package kv is the production-shaped workload the paper's evaluation
// never had: a persistent, multi-tenant key-value service (memcached's
// op surface — Get/Set/Delete/CAS plus ordered Scan) layered over the
// internal/lfds hashmap (point index) and skiplist (ordered index),
// driven by an open-loop request generator with deterministic
// zipfian/hotspot key skew, configurable op mixes, and value-size
// distributions.
//
// Every per-key mutation is a single release CAS on the key's value
// cell, so the per-key linearization order IS the cell's coherence
// order and the whole store inherits the Figure-1 persistency
// discipline: values are immutable records prepared with plain stores
// and published by the release CAS. Deletes publish a tombstone
// instead of unlinking, which keeps node addresses stable and makes
// recovery a pure walk. The package registers itself in the workload
// registry as "kv"; import it for side effects to enable the workload.
package kv

import (
	"math"

	"lrp/internal/engine"
	"lrp/internal/workload"
)

// OpKind is a generated request's operation.
type OpKind uint8

const (
	ReqGet OpKind = iota
	ReqSet
	ReqDel
	ReqCAS
	ReqScan
)

// Request is one generated service request. Key is tenant-local, in
// [1, KeysPerTenant]; ValWords is the payload size drawn for Set/CAS.
type Request struct {
	Tenant   int
	Op       OpKind
	Key      uint64
	ValWords int
}

// Gen is the deterministic open-loop request generator. The per-thread
// request streams are pure functions of (params, seed, thread index):
// they never depend on responses, scheduling, or each other, so a
// stream is byte-identical no matter how many experiment workers or
// host goroutines are running. The zipfian constants are precomputed
// once and only read afterwards, making one Gen safe to share across
// concurrently generating threads.
type Gen struct {
	p    workload.KVParams
	seed uint64

	// Zipfian constants (YCSB's generator): rank popularity follows
	// 1/rank^theta over KeysPerTenant ranks, and ranks are scrambled
	// over the key space so the hot set is spread, not clustered.
	theta, zetan, zeta2, alpha, eta, half float64
}

// NewGen builds a generator for normalized params p. The zeta
// precomputation is O(KeysPerTenant) host work, done once per run.
func NewGen(p workload.KVParams, seed uint64) *Gen {
	g := &Gen{p: p, seed: seed}
	if p.Skew == workload.SkewZipfian {
		n := float64(p.KeysPerTenant)
		g.theta = float64(p.ThetaMilli) / 1000
		g.zetan = zeta(p.KeysPerTenant, g.theta)
		g.zeta2 = zeta(2, g.theta)
		g.alpha = 1 / (1 - g.theta)
		g.eta = (1 - math.Pow(2/n, 1-g.theta)) / (1 - g.zeta2/g.zetan)
		g.half = math.Pow(0.5, g.theta)
	}
	return g
}

// zeta is the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n int, theta float64) float64 {
	s := 0.0
	for i := 1; i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

// mix64 is the splitmix64 finalizer: the scrambler mapping popularity
// ranks onto keys, and the basis of record payloads and checksums.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// key draws one tenant-local key in [1, KeysPerTenant] from the
// configured skew.
func (g *Gen) key(r *engine.Rand) uint64 {
	n := uint64(g.p.KeysPerTenant)
	switch g.p.Skew {
	case workload.SkewZipfian:
		u := r.Float64()
		uz := u * g.zetan
		var rank uint64
		switch {
		case uz < 1:
			rank = 0
		case uz < 1+g.half:
			rank = 1
		default:
			rank = uint64(float64(n) * math.Pow(g.eta*u-g.eta+1, g.alpha))
		}
		if rank >= n {
			rank = n - 1
		}
		// Scramble rank → key so popular keys spread across the key
		// space (and across hash buckets) instead of clustering at 1.
		return 1 + mix64(rank+1)%n
	case workload.SkewHotspot:
		hot := n * uint64(g.p.HotKeyPct) / 100
		if hot < 1 {
			hot = 1
		}
		if hot >= n {
			return 1 + r.Uint64n(n)
		}
		if r.Intn(100) < g.p.HotOpPct {
			return 1 + r.Uint64n(hot)
		}
		return 1 + hot + r.Uint64n(n-hot)
	default: // uniform
		return 1 + r.Uint64n(n)
	}
}

// streamRand seeds thread i's request stream. The salt keeps it
// disjoint from the harness's warm-up and structure-internal rngs.
func (g *Gen) streamRand(thread int) *engine.Rand {
	return engine.NewRand(g.seed ^ 0x6b76 ^ (uint64(thread)+1)*0x9e3779b97f4a7c15)
}

// Stream generates thread's first n requests. Every request draws its
// tenant, op roll, key, and value size unconditionally, so the key
// sequence is invariant under op-mix changes (useful when pinning skew
// goldens) and the stream length is the only consumption variable.
func (g *Gen) Stream(thread, n int) []Request {
	r := g.streamRand(thread)
	reqs := make([]Request, n)
	for i := range reqs {
		tenant := int(r.Uint64n(uint64(g.p.Tenants)))
		roll := r.Intn(100)
		key := g.key(r)
		vw := g.p.MinValWords + r.Intn(g.p.MaxValWords-g.p.MinValWords+1)
		var op OpKind
		switch {
		case roll < g.p.GetPct:
			op = ReqGet
		case roll < g.p.GetPct+g.p.SetPct:
			op = ReqSet
		case roll < g.p.GetPct+g.p.SetPct+g.p.DelPct:
			op = ReqDel
		case roll < g.p.GetPct+g.p.SetPct+g.p.DelPct+g.p.CASPct:
			op = ReqCAS
		default:
			op = ReqScan
		}
		reqs[i] = Request{Tenant: tenant, Op: op, Key: key, ValWords: vw}
	}
	return reqs
}
