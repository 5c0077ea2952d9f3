package dlin

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"lrp/internal/engine"
	"lrp/internal/model"
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
	// needOf[i] is the history index of that latest predecessor, the
	// first in linearization order among equals.
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

	// byP, byNeed and byNeedW list the updates (upd indices) in
	// ascending order of pAt, need and needW. A Pass moving to a later
	// instant finds the updates whose instants it crossed as the next
	// run of each.
	byP, byNeed, byNeedW []int32

	// keys holds the distinct keys of a keyed history's updates,
	// ascending; slot[i] is upd[i]'s key's index in keys, and
	// keyUpd[keyAt[j]:keyAt[j+1]] are the updates on keys[j] in
	// linearization order. A Pass keeps its expected set in arrays over
	// keys, so the set is in key order without a sort, and replays one
	// key from its own updates.
	keys   []uint64
	slot   []int32
	keyAt  []int32
	keyUpd []int32

	// enq lists a queue history's enqueues by value, then in
	// linearization order: the index durableEnqueueOf searches.
	enq []enqRef
}

// enqRef is one enqueue of val, upd[i].
type enqRef struct {
	val uint64
	i   int32
}

// NewChecker precomputes the durability schedule of h's updates against
// the machine's happens-before tracker, in O(updates × threads × log
// updates) plus sorts. It errors when the history carries updates but no
// linearization stamps (the run was made without Config.TrackHB, so
// there is nothing to check against).
func NewChecker(h *History, tr *model.Tracker) (*Checker, error) {
	if tr == nil {
		return nil, fmt.Errorf("dlin: checker requires the happens-before tracker (Config.TrackHB)")
	}
	c := &Checker{h: h, tr: tr, upd: make([]int, 0, len(h.Ops))}
	mutating := 0
	for i := range h.Ops {
		o := &h.Ops[i]
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
	c.needW = make([]engine.Time, n)
	c.needWOf = make([]model.Stamp, n)
	hn := tr.NewHBNeed()
	for i, oi := range c.upd {
		c.pAt[i] = tr.DurableAt(h.Ops[oi].Lin)
		c.needW[i], c.needWOf[i] = hn.Of(h.Ops[oi].Lin)
	}
	c.closeHB()
	buf := make([]timed, n)
	c.byP, c.byNeed, c.byNeedW = order(c.pAt, buf), order(c.need, buf), order(c.needW, buf)
	if h.Queue() {
		for i, oi := range c.upd {
			if o := &h.Ops[oi]; o.Kind == OpEnqueue {
				c.enq = append(c.enq, enqRef{o.Val, int32(i)})
			}
		}
		slices.SortFunc(c.enq, func(a, b enqRef) int {
			return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.i, b.i))
		})
		return c, nil
	}
	c.keys = make([]uint64, n)
	for i, oi := range c.upd {
		c.keys[i] = h.Ops[oi].Key
	}
	slices.Sort(c.keys)
	c.keys = slices.Compact(c.keys)
	c.slot = make([]int32, n)
	c.keyAt = make([]int32, len(c.keys)+1)
	for i, oi := range c.upd {
		j, _ := slices.BinarySearch(c.keys, h.Ops[oi].Key)
		c.slot[i] = int32(j)
		c.keyAt[j+1]++
	}
	for j := range c.keys {
		c.keyAt[j+1] += c.keyAt[j]
	}
	c.keyUpd = make([]int32, n)
	fill := slices.Clone(c.keyAt[:len(c.keys)])
	for i, j := range c.slot {
		c.keyUpd[fill[j]] = int32(i)
		fill[j]++
	}
	return c, nil
}

// timed is update i with one of its instants.
type timed struct {
	t engine.Time
	i int32
}

// order returns the update indices sorted by ts, ties in linearization
// order, sorting in buf.
func order(ts []engine.Time, buf []timed) []int32 {
	for i, t := range ts {
		buf[i] = timed{t, int32(i)}
	}
	slices.SortFunc(buf, func(a, b timed) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		return cmp.Compare(a.i, b.i)
	})
	idx := make([]int32, len(ts))
	for k, e := range buf {
		idx[k] = e.i
	}
	return idx
}

// latest is a candidate for need: the persist time at, reached first in
// linearization order by update i (-1 with at 0: none).
type latest struct {
	at engine.Time
	i  int32
}

// or returns the later of a and b, the earlier update among equal
// times. A time of 0 never counts, as no predecessor persisting at 0
// can make the prefix unclosed.
func (a latest) or(b latest) latest {
	if b.at > a.at || b.at == a.at && b.at > 0 && b.i < a.i {
		return b
	}
	return a
}

// closeHB fills need and needOf from per-thread prefix maxima. Under the
// rule model.Tracker.HappensBefore applies, an update's predecessors on
// a thread t form a prefix of t's writes: for a release linearization,
// every earlier write of its own thread, and on another thread t every
// write up to the last release of t its acquire clock covers. So with
// each thread's updates in write order and the running latest pAt over
// them, an update's need is the latest of one prefix per thread, found
// by binary search. A linearization that is not a release (none of the
// repository's structures makes one) also has own-thread predecessors
// on its same-address chain; those past its acquired prefix are tested
// one by one.
func (c *Checker) closeHB() {
	tr, h := c.tr, c.h
	n := len(c.upd)
	c.need = make([]engine.Time, n)
	c.needOf = make([]int, n)
	// threads[t] is thread t's updates in write order, upTo[t][k] the
	// latest of its first k.
	type write struct {
		tid int
		seq uint64
		i   int32
	}
	all := make([]write, n)
	for i, oi := range c.upd {
		lin := h.Ops[oi].Lin
		all[i] = write{lin.Tid, lin.Seq, int32(i)}
	}
	slices.SortFunc(all, func(a, b write) int {
		return cmp.Or(cmp.Compare(a.tid, b.tid), cmp.Compare(a.seq, b.seq), cmp.Compare(a.i, b.i))
	})
	threads := make([][]write, tr.Threads())
	upTo := make([][]latest, len(threads))
	m := make([]latest, n+len(threads))
	for t := range threads {
		k := 0
		for k < len(all) && all[k].tid == t {
			k++
		}
		threads[t], all = all[:k], all[k:]
		upTo[t], m = m[:k+1], m[k+1:]
		upTo[t][0] = latest{0, -1}
		for j, w := range threads[t] {
			upTo[t][j+1] = upTo[t][j].or(latest{c.pAt[w.i], w.i})
		}
	}
	// prefix returns how many of thread t's updates are at or before seq.
	prefix := func(t int, seq uint64) int {
		ws := threads[t]
		return sort.Search(len(ws), func(k int) bool { return ws[k].seq > seq })
	}
	for i, oi := range c.upd {
		lin := h.Ops[oi].Lin
		_, rel, acq := tr.WriteInfo(lin)
		best := latest{0, -1}
		for t := range threads {
			var seq uint64
			switch {
			case t == lin.Tid && rel != 0:
				seq = lin.Seq - 1
			case acq.Get(t) != 0:
				seq = tr.ReleaseSeq(t, acq.Get(t))
			}
			k := prefix(t, seq)
			best = best.or(upTo[t][k])
			if t != lin.Tid || rel != 0 {
				continue
			}
			for _, w := range threads[t][k:] {
				if w.seq >= lin.Seq {
					break
				}
				if tr.HappensBefore(h.Ops[c.upd[w.i]].Lin, lin) {
					best = best.or(latest{c.pAt[w.i], w.i})
				}
			}
		}
		c.need[i], c.needOf[i] = best.at, -1
		if best.i >= 0 {
			c.needOf[i] = c.upd[best.i]
		}
	}
}

// Updates returns the number of checkable updates.
func (c *Checker) Updates() int { return len(c.upd) }

// NewPass returns a mutable checking cursor over the shared
// precomputation. Each sweep worker owns one.
func (c *Checker) NewPass() *Pass {
	p := &Pass{c: c}
	if !c.h.Queue() {
		k := len(c.keys)
		p.has, p.val = make([]bool, k), make([]uint64, k)
		p.last, p.ghost = make([]int32, k), make([]int32, k)
		p.stale, p.dirty = make([]bool, k), make([]bool, k)
		p.staleList, p.dirtyList = make([]int32, 0, k), make([]int32, 0, k)
	}
	p.reset()
	return p
}

func timeStr(t engine.Time) string {
	if t == engine.Infinity {
		return "never"
	}
	return fmt.Sprintf("%d", t)
}
