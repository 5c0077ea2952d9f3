package dlin

import (
	"fmt"
	"slices"
	"sort"

	"lrp/internal/engine"
	"lrp/internal/model"
	"lrp/internal/recovery"
)

// Checker holds the immutable per-history precomputation shared by every
// crash instant: the update set sorted into linearization order, each
// update's persist time, and the latest persist time among its
// happens-before predecessors. Build one per (history, tracker) pair
// with NewChecker; it is safe for concurrent use through per-worker
// Passes.
type Checker struct {
	h  *History
	tr *model.Tracker

	// upd indexes h.Ops: the successful mutating ops with linearization
	// stamps, sorted by LinSeq (the global linearization order).
	upd []int
	// pAt[i] is when upd[i]'s linearization write became durable
	// (engine.Infinity: never): model.Tracker.DurableAt, which under
	// tearing is the start of a torn persist that carried the write's
	// word, since a crash image holds the word from then on.
	pAt []engine.Time
	// need[i] is the latest persist time among upd[i]'s happens-before
	// predecessor linearizations (0 when it has none): upd[i] durable at
	// t with need[i] > t means the durable prefix is not HB-closed.
	// needOf[i] is the history index of that latest predecessor.
	need   []engine.Time
	needOf []int
	// needW[i] is the latest persist time among ALL happens-before
	// predecessor writes of upd[i]'s linearization — not just other
	// linearizations but the op's own node-initialization stores and
	// every acquired write. upd[i] durable at t with needW[i] > t is the
	// ARP gap in write-level form: the release persisted before a write
	// it was ordered after, so the op's effect can be structurally
	// unrecoverable. needWOf[i] is the write achieving it.
	needW   []engine.Time
	needWOf []model.Stamp

	// keys holds the distinct keys of a keyed history's updates,
	// ascending; slot[i] is upd[i]'s key's index in keys. A Pass keeps
	// its expected set in arrays over keys, so the set is in key order
	// without a sort.
	keys []uint64
	slot []int32

	// thr holds the distinct finite values of pAt, need and needW,
	// ascending. A check reads the crash instant only through
	// comparisons with these, so two instants with no threshold between
	// them get the same verdict on the same recovered state.
	thr []engine.Time
}

// NewChecker precomputes the durability schedule of h's updates against
// the machine's happens-before tracker. It errors when the history
// carries updates but no linearization stamps (the run was made without
// Config.TrackHB, so there is nothing to check against).
func NewChecker(h *History, tr *model.Tracker) (*Checker, error) {
	if tr == nil {
		return nil, fmt.Errorf("dlin: checker requires the happens-before tracker (Config.TrackHB)")
	}
	c := &Checker{h: h, tr: tr}
	mutating := 0
	for i, o := range h.Ops {
		if !o.OK || !o.Kind.Mutates() {
			continue
		}
		mutating++
		if !o.Lin.IsZero() {
			c.upd = append(c.upd, i)
		}
	}
	if len(c.upd) == 0 && mutating > 0 {
		return nil, fmt.Errorf("dlin: history has %d updates but no linearization stamps (record it with Config.TrackHB)", mutating)
	}
	sort.Slice(c.upd, func(a, b int) bool {
		return h.Ops[c.upd[a]].LinSeq < h.Ops[c.upd[b]].LinSeq
	})
	n := len(c.upd)
	c.pAt = make([]engine.Time, n)
	c.need = make([]engine.Time, n)
	c.needOf = make([]int, n)
	c.needW = make([]engine.Time, n)
	c.needWOf = make([]model.Stamp, n)
	hn := tr.NewHBNeed()
	for i, oi := range c.upd {
		c.pAt[i] = tr.DurableAt(h.Ops[oi].Lin)
		c.needOf[i] = -1
		c.needW[i], c.needWOf[i] = hn.Of(h.Ops[oi].Lin)
	}
	// Pairwise happens-before closure over linearization writes. All
	// linearization points are releases, so each HappensBefore call is
	// O(1); the quadratic pass runs once per sweep, not per boundary.
	for i, oi := range c.upd {
		for j, oj := range c.upd {
			if i == j {
				continue
			}
			if c.pAt[j] > c.need[i] && tr.HappensBefore(h.Ops[oj].Lin, h.Ops[oi].Lin) {
				c.need[i] = c.pAt[j]
				c.needOf[i] = oj
			}
		}
	}
	if !h.Queue() {
		for _, oi := range c.upd {
			c.keys = append(c.keys, h.Ops[oi].Key)
		}
		slices.Sort(c.keys)
		c.keys = slices.Compact(c.keys)
		c.slot = make([]int32, n)
		for i, oi := range c.upd {
			j, _ := slices.BinarySearch(c.keys, h.Ops[oi].Key)
			c.slot[i] = int32(j)
		}
	}
	for _, ts := range [][]engine.Time{c.pAt, c.need, c.needW} {
		for _, t := range ts {
			if t != engine.Infinity {
				c.thr = append(c.thr, t)
			}
		}
	}
	slices.Sort(c.thr)
	c.thr = slices.Compact(c.thr)
	return c, nil
}

// nextThreshold returns the least threshold after t (engine.Infinity
// when none is).
func (c *Checker) nextThreshold(t engine.Time) engine.Time {
	i, found := slices.BinarySearch(c.thr, t)
	if found {
		i++
	}
	if i == len(c.thr) {
		return engine.Infinity
	}
	return c.thr[i]
}

// Updates returns the number of checkable updates.
func (c *Checker) Updates() int { return len(c.upd) }

// NewPass returns a mutable checking cursor over the shared
// precomputation. Each sweep worker owns one; a Pass caches the replayed
// expected state between crash instants with identical durable prefixes,
// so an ascending sweep over a boundary range replays each distinct
// prefix once, and it reuses its last verdict while neither the
// recovered state nor any threshold the verdict reads has changed.
func (c *Checker) NewPass() *Pass {
	return &Pass{c: c, lastCount: -1}
}

// Pass is one worker's checking state: the replayed durable prefix and
// the last verdict, which Check reuses at boundaries whose recovered
// state it has already checked. Not safe for concurrent use.
type Pass struct {
	c *Checker

	// Verdict memo: the violations found at memoAt over memoRep. They
	// hold, re-stamped, at every instant in [memoAt, memoUntil) over the
	// same report, memoUntil being the first threshold after memoAt.
	memoRep           *recovery.Report
	memoAt, memoUntil engine.Time
	memoOut           []Violation

	// Expected-state cache. The durable prefix {i : pAt[i] <= t} grows
	// monotonically with t, so two instants with the same durable count
	// hold the same prefix; lastCount keys the cache and lastAt is the
	// threshold that produced it.
	lastCount int
	lastAt    engine.Time
	// The expected keyed set: has[j] reports whether c.keys[j] is in it,
	// val[j] its value.
	has       []bool
	val       []uint64
	queue     []uint64
	replayBad []Violation // replay-order inconsistencies of the cached prefix
	extra     []uint64    // compareSet's reused buffer of unexpected keys
}

// inPrefix reports whether update i is in the cached durable prefix.
func (p *Pass) inPrefix(i int) bool { return p.c.pAt[i] <= p.lastAt }

// Check verifies durable linearizability of the crash instant at: rep
// must be the hardened recovery walk over the machine's crash image at
// the same instant, and must not change once checked. It returns every
// violation found, in deterministic order (linearization order, then key
// order), independent of how crash instants were sharded across workers.
//
// Called again with the same report at a later instant that no threshold
// separates from the last one, it returns the last verdict with At
// re-stamped instead of checking again: every comparison the check makes
// comes out the same, and no Detail mentions the instant.
func (p *Pass) Check(at engine.Time, rep *recovery.Report) []Violation {
	if rep == p.memoRep && at >= p.memoAt && at < p.memoUntil {
		out := slices.Clone(p.memoOut)
		for i := range out {
			out[i].At = at
		}
		return out
	}
	out := p.check(at, rep)
	p.memoRep, p.memoAt, p.memoUntil = rep, at, p.c.nextThreshold(at)
	p.memoOut = slices.Clone(out)
	return out
}

func (p *Pass) check(at engine.Time, rep *recovery.Report) []Violation {
	c := p.c
	h := c.h
	var out []Violation

	// Closure: every durable linearization's HB-predecessors must be
	// durable too.
	count := 0
	for i := range c.upd {
		if c.pAt[i] > at {
			continue
		}
		count++
		if c.need[i] > at {
			oi := c.upd[i]
			o := h.Ops[oi]
			pre := h.Ops[c.needOf[i]]
			out = append(out, Violation{
				Class: Reordered, At: at, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
				Detail: fmt.Sprintf("%v durable (persisted t=%d) but happens-before predecessor %v is not (persists t=%s)",
					o, c.pAt[i], pre, timeStr(c.need[i])),
			})
		}
	}

	p.replay(at, count)
	for _, v := range p.replayBad {
		v.At = at
		out = append(out, v)
	}

	if h.Queue() {
		out = append(out, p.compareQueue(at, rep)...)
	} else {
		out = append(out, p.compareSet(at, rep)...)
	}
	return out
}

// replay rebuilds the expected abstract state by applying the durable
// prefix at threshold `at` in linearization order. Cached by prefix
// size: the durable set grows monotonically with the threshold, so equal
// counts mean identical prefixes and a sweep re-replays only when the
// prefix actually changed.
func (p *Pass) replay(at engine.Time, count int) {
	if count == p.lastCount {
		return
	}
	c := p.c
	h := c.h
	p.lastCount, p.lastAt = count, at
	p.replayBad = p.replayBad[:0]
	if h.Queue() {
		p.queue = p.queue[:0]
	} else {
		if p.has == nil {
			p.has = make([]bool, len(c.keys))
			p.val = make([]uint64, len(c.keys))
		} else {
			clear(p.has)
		}
	}
	for i, oi := range c.upd {
		if c.pAt[i] > at {
			continue
		}
		o := h.Ops[oi]
		switch o.Kind {
		case OpInsert, OpSet:
			j := c.slot[i]
			p.has[j], p.val[j] = true, o.Val
		case OpDelete:
			p.has[c.slot[i]] = false
		case OpCAS:
			// A successful CAS's expected value must be what the durable
			// linearization order left on the key. Per-word persist times
			// are monotone in coherence order (a flush captures the
			// line's current contents, so a later write to the same word
			// never persists before an earlier one); combined with
			// release persistency ordering each value-cell CAS after the
			// writes it observed, a durable CAS implies its expected
			// value's writer is durable. A mismatch here is the same
			// write-level reordering the queue's dequeue check catches.
			j := c.slot[i]
			cur, present := p.val[j], p.has[j]
			switch {
			case !present:
				p.replayBad = append(p.replayBad, Violation{
					Class: Reordered, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
					Detail: fmt.Sprintf("%v durable before the write that supplied its expected value", o),
				})
				continue
			case cur != o.Exp:
				p.replayBad = append(p.replayBad, Violation{
					Class: Phantom, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
					Detail: fmt.Sprintf("%v but the durable linearization order leaves value %d on key %d", o, cur, o.Key),
				})
			}
			p.has[j], p.val[j] = true, o.Val
		case OpEnqueue:
			p.queue = append(p.queue, o.Val)
		case OpDequeue:
			if len(p.queue) == 0 {
				p.replayBad = append(p.replayBad, Violation{
					Class: Reordered, Op: oi, Kind: o.Kind, Val: o.Ret,
					Detail: fmt.Sprintf("%v durable before the enqueue that supplied its value", o),
				})
				continue
			}
			if p.queue[0] != o.Ret {
				p.replayBad = append(p.replayBad, Violation{
					Class: Phantom, Op: oi, Kind: o.Kind, Val: o.Ret,
					Detail: fmt.Sprintf("%v but the durable linearization order dequeues %d", o, p.queue[0]),
				})
			}
			p.queue = p.queue[1:]
		}
	}
}

func timeStr(t engine.Time) string {
	if t == engine.Infinity {
		return "never"
	}
	return fmt.Sprintf("%d", t)
}

// compareSet diffs the expected keyed-set contents against the recovery
// walk's, in sorted key order. The expected set is already in key order
// (Checker.keys); the recovered set is scanned for keys beyond it only
// when it holds more keys than the expected set shares with it.
func (p *Pass) compareSet(at engine.Time, rep *recovery.Report) []Violation {
	var got map[uint64]uint64
	if rep.Set != nil {
		got = rep.Set.Members
	}
	c := p.c
	var out []Violation
	hits := 0
	for j, k := range c.keys {
		if !p.has[j] {
			continue
		}
		want := p.val[j]
		have, inHave := got[k]
		if inHave {
			hits++
		}
		switch {
		case !inHave:
			// A durable update can legally be invisible after a crash: with
			// elided-acquire traversals (the skip list's plain index-level
			// loads) nothing orders the persist of the third-party link
			// that makes its node reachable, so a correct mechanism can
			// recover a happens-before-closed SUBSET of the durable prefix.
			// The loss is a violation only when the durable write set is
			// not closed beneath the op itself: its linearization persisted
			// while a write it was ordered after — its own node stores, or
			// anything it acquired — did not. That write-level reordering
			// is the ARP gap; no buffering explains it.
			ui, oi, o := p.lastDurableOn(k)
			if ui >= 0 && c.needW[ui] > at {
				out = append(out, Violation{
					Class: AckedLost, At: at, Op: oi, Kind: o.Kind, Key: k, Val: want,
					Detail: fmt.Sprintf("%v acknowledged and durable (linearization persisted t=%d) but key %d is missing from the recovered state: happens-before-earlier write %v is not durable (persists t=%s)",
						o, c.pAt[ui], k, c.needWOf[ui], timeStr(c.needW[ui])),
				})
			}
		case want != have:
			_, oi, o := p.lastDurableOn(k)
			out = append(out, Violation{
				Class: Phantom, At: at, Op: oi, Kind: o.Kind, Key: k, Val: have,
				Detail: fmt.Sprintf("key %d recovered with value %d, durable history says %d", k, have, want),
			})
		}
	}
	if len(got) == hits {
		return out
	}
	extra := p.extra[:0]
	for k := range got { // maprange:ok — sorted below
		if j, ok := slices.BinarySearch(c.keys, k); !ok || !p.has[j] {
			extra = append(extra, k)
		}
	}
	slices.Sort(extra)
	p.extra = extra
	// Merge the phantoms of the unexpected keys into out, which is in key
	// order and holds at most one violation per key.
	merged := make([]Violation, 0, len(out)+len(extra))
	i := 0
	for _, k := range extra {
		for i < len(out) && out[i].Key < k {
			merged = append(merged, out[i])
			i++
		}
		merged = append(merged, Violation{
			Class: Phantom, At: at, Op: p.phantomOpOn(k), Kind: OpInsert, Key: k, Val: got[k],
			Detail: fmt.Sprintf("recovered state contains key %d (val %d) that no durable operation explains", k, got[k]),
		})
	}
	return append(merged, out[i:]...)
}

// compareQueue diffs the expected FIFO contents against the recovery
// walk's, position by position from the head.
func (p *Pass) compareQueue(at engine.Time, rep *recovery.Report) []Violation {
	var got []uint64
	if rep.Queue != nil {
		got = rep.Queue.Values
	}
	want := p.queue
	var out []Violation
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			out = append(out, Violation{
				Class: Phantom, At: at, Op: -1, Kind: OpEnqueue, Val: got[i],
				Detail: fmt.Sprintf("queue position %d recovered value %d, durable history says %d", i, got[i], want[i]),
			})
			return out // positions past a mismatch are not comparable
		}
	}
	for i := n; i < len(want); i++ {
		// Same write-level closure test as the keyed sets: a durable
		// enqueue missing from the recovered queue is a violation only
		// when its linearization outran a happens-before-earlier write.
		ui, oi, o := p.durableEnqueueOf(want[i])
		if ui < 0 || p.c.needW[ui] <= at {
			continue
		}
		out = append(out, Violation{
			Class: AckedLost, At: at, Op: oi, Kind: OpEnqueue, Val: want[i],
			Detail: fmt.Sprintf("%v acknowledged and durable but value %d is missing from the recovered queue: happens-before-earlier write %v is not durable (persists t=%s)",
				o, want[i], p.c.needWOf[ui], timeStr(p.c.needW[ui])),
		})
	}
	for i := n; i < len(got); i++ {
		out = append(out, Violation{
			Class: Phantom, At: at, Op: -1, Kind: OpEnqueue, Val: got[i],
			Detail: fmt.Sprintf("recovered queue holds value %d at position %d that no durable operation explains", got[i], i),
		})
	}
	return out
}

// lastDurableOn finds the latest durable update on key k in
// linearization order (the op whose effect the expected state reflects),
// returning its upd index, history index, and op; (-1, -1, Op{}) when
// none exists.
func (p *Pass) lastDurableOn(k uint64) (int, int, Op) {
	c := p.c
	for i := len(c.upd) - 1; i >= 0; i-- {
		oi := c.upd[i]
		o := c.h.Ops[oi]
		if o.Key == k && p.inPrefix(i) {
			return i, oi, o
		}
	}
	return -1, -1, Op{}
}

// phantomOpOn finds the first non-durable key-creating update of key k,
// the likely source of a phantom (an effect from the non-durable
// future); -1 when none exists.
func (p *Pass) phantomOpOn(k uint64) int {
	c := p.c
	for i, oi := range c.upd {
		o := c.h.Ops[oi]
		creates := o.Kind == OpInsert || o.Kind == OpSet || o.Kind == OpCAS
		if creates && o.Key == k && !p.inPrefix(i) {
			return oi
		}
	}
	return -1
}

// durableEnqueueOf finds the earliest durable enqueue of value v,
// returning its upd index, history index, and op.
func (p *Pass) durableEnqueueOf(v uint64) (int, int, Op) {
	c := p.c
	for i, oi := range c.upd {
		o := c.h.Ops[oi]
		if o.Kind == OpEnqueue && o.Val == v && p.inPrefix(i) {
			return i, oi, o
		}
	}
	return -1, -1, Op{}
}
