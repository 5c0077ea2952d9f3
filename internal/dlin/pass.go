package dlin

import (
	"cmp"
	"fmt"
	"slices"

	"lrp/internal/engine"
	"lrp/internal/recovery"
)

// Pass is one worker's checking state at the instant and report it last
// checked: the durable prefix, the expected state it replays to, and the
// violations standing, each kept in its own order. A check at a later
// instant works from what changed since: the updates whose pAt, need or
// needW it crossed (the runs of Checker.byP, byNeed and byNeedW past the
// last instant), the keys those updates touch, and the keys the recovery
// walk says it changed (recovery.Report.ChangedSince). An earlier
// instant starts it over from nothing, and a report it cannot relate to
// the last one re-judges every key: that cold check is the whole
// history's work, and what a fresh Pass does. Not safe for concurrent
// use.
type Pass struct {
	c *Checker

	// at is the instant of the last check, rep its report (nil: none).
	at  engine.Time
	rep *recovery.Report
	// nP, nNeed and nNeedW count the leading updates of c.byP, c.byNeed
	// and c.byNeedW whose instant is at or before at.
	nP, nNeed, nNeedW int

	// The standing violations: reordered durable updates (closure) and
	// replay inconsistencies, both keyed by update index, and the
	// comparison's, keyed by data key. A queue's comparison is qcmp.
	reordered, replayBad, cmp violSet
	qcmp                      []Violation

	// The expected keyed set, per key slot j of c.keys: has[j] reports
	// whether c.keys[j] is in it, val[j] its value. last[j] is the last
	// durable update on the key (-1: none), ghost[j] the history index of
	// its first non-durable key-creating update (-1: none).
	has         []bool
	val         []uint64
	last, ghost []int32
	// stale marks the keys to replay again, dirty the slots to judge
	// again; staleList and dirtyList list them.
	stale, dirty         []bool
	staleList, dirtyList []int32

	// The expected queue, replayed whole when queueStale; qcmp is judged
	// again when queueDirty or the report is new.
	queue                  []uint64
	queueStale, queueDirty bool
}

// reset forgets every durable update: the next check starts cold.
func (p *Pass) reset() {
	p.at, p.rep = 0, nil
	p.nP, p.nNeed, p.nNeedW = 0, 0, 0
	p.reordered.reset()
	p.replayBad.reset()
	p.cmp.reset()
	p.queueStale = true
	for j := range p.stale {
		p.markStale(int32(j))
	}
}

func (p *Pass) markStale(j int32) {
	if !p.stale[j] {
		p.stale[j] = true
		p.staleList = append(p.staleList, j)
	}
}

func (p *Pass) markDirty(j int32) {
	if !p.dirty[j] {
		p.dirty[j] = true
		p.dirtyList = append(p.dirtyList, j)
	}
}

// Check verifies durable linearizability of the crash instant at: rep
// must be the hardened recovery walk over the machine's crash image at
// the same instant, and must not change once checked. It returns every
// violation found, in deterministic order (linearization order, then key
// order), independent of how crash instants were sharded across workers
// and of what the Pass checked before.
func (p *Pass) Check(at engine.Time, rep *recovery.Report) []Violation {
	if at < p.at {
		p.reset()
	}
	p.advance(at)
	if p.c.h.Queue() {
		p.replayQueue(at)
		if p.queueDirty || rep != p.rep {
			p.qcmp = p.compareQueue(at, rep, p.qcmp[:0])
			p.queueDirty = false
		}
	} else {
		p.replayKeys(at)
		p.compareSet(at, rep)
	}
	p.at, p.rep = at, rep

	n := len(p.reordered.list) + len(p.replayBad.list) + len(p.cmp.list) + len(p.qcmp)
	if n == 0 {
		return nil
	}
	out := make([]Violation, 0, n)
	for _, l := range [][]keyedViolation{p.reordered.list, p.replayBad.list, p.cmp.list} {
		for _, e := range l {
			e.v.At = at
			out = append(out, e.v)
		}
	}
	for _, v := range p.qcmp {
		v.At = at
		out = append(out, v)
	}
	return out
}

// advance moves the durable prefix to at: the updates whose pAt it
// crossed join the prefix and make their keys stale, and the closure
// set follows every pAt and need crossed. A crossed needW can end an
// acked-but-lost verdict, so it makes its key's slot dirty.
func (p *Pass) advance(at engine.Time) {
	c := p.c
	keyed := !c.h.Queue()
	for ; p.nP < len(c.byP) && c.pAt[c.byP[p.nP]] <= at; p.nP++ {
		i := c.byP[p.nP]
		if c.need[i] > at {
			p.reordered.put(uint64(i), c.reorderedAt(int(i)))
		}
		if keyed {
			p.markStale(c.slot[i])
		} else {
			p.queueStale = true
		}
	}
	for ; p.nNeed < len(c.byNeed) && c.need[c.byNeed[p.nNeed]] <= at; p.nNeed++ {
		if i := c.byNeed[p.nNeed]; c.pAt[i] <= at {
			p.reordered.drop(uint64(i))
		}
	}
	for ; p.nNeedW < len(c.byNeedW) && c.needW[c.byNeedW[p.nNeedW]] <= at; p.nNeedW++ {
		if keyed {
			p.markDirty(c.slot[c.byNeedW[p.nNeedW]])
		} else {
			p.queueDirty = true
		}
	}
	p.reordered.flush()
}

// reorderedAt is the closure violation of update i, durable while a
// happens-before predecessor linearization is not.
func (c *Checker) reorderedAt(i int) Violation {
	oi := c.upd[i]
	o := &c.h.Ops[oi]
	return Violation{
		Class: Reordered, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
		Detail: fmt.Sprintf("%v durable (persisted t=%d) but happens-before predecessor %v is not (persists t=%s)",
			*o, c.pAt[i], c.h.Ops[c.needOf[i]], timeStr(c.need[i])),
	}
}

// creates reports whether a successful op of kind k leaves its key
// present.
func creates(k Kind) bool { return k == OpInsert || k == OpSet || k == OpCAS }

// replayKeys replays each stale key's durable updates in linearization
// order into its expected entry. Keys are independent, so this is the
// whole durable prefix's replay restricted to the keys it changed.
func (p *Pass) replayKeys(at engine.Time) {
	c := p.c
	h := c.h
	for _, j := range p.staleList {
		p.stale[j] = false
		has, val, last, ghost := false, uint64(0), int32(-1), int32(-1)
		for _, i := range c.keyUpd[c.keyAt[j]:c.keyAt[j+1]] {
			oi := c.upd[i]
			o := &h.Ops[oi]
			if c.pAt[i] > at {
				if ghost < 0 && creates(o.Kind) {
					ghost = int32(oi)
				}
				continue
			}
			last = i
			switch o.Kind {
			case OpInsert, OpSet:
				has, val = true, o.Val
			case OpDelete:
				has = false
			case OpCAS:
				// A successful CAS's expected value must be what the
				// durable linearization order left on the key. Per-word
				// persist times are monotone in coherence order (a flush
				// captures the line's current contents, so a later write
				// to the same word never persists before an earlier
				// one); combined with release persistency ordering each
				// value-cell CAS after the writes it observed, a durable
				// CAS implies its expected value's writer is durable. A
				// mismatch here is the same write-level reordering the
				// queue's dequeue check catches.
				switch {
				case !has:
					p.replayBad.put(uint64(i), Violation{
						Class: Reordered, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
						Detail: fmt.Sprintf("%v durable before the write that supplied its expected value", *o),
					})
					continue
				case val != o.Exp:
					p.replayBad.put(uint64(i), Violation{
						Class: Phantom, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
						Detail: fmt.Sprintf("%v but the durable linearization order leaves value %d on key %d", *o, val, o.Key),
					})
				default:
					p.replayBad.drop(uint64(i))
				}
				has, val = true, o.Val
			}
		}
		p.has[j], p.val[j], p.last[j], p.ghost[j] = has, val, last, ghost
		p.markDirty(j)
	}
	p.staleList = p.staleList[:0]
	p.replayBad.flush()
}

// replayQueue replays the durable prefix in linearization order into the
// expected queue, when an update joined it since the last replay.
func (p *Pass) replayQueue(at engine.Time) {
	if !p.queueStale {
		return
	}
	p.queueStale, p.queueDirty = false, true
	c := p.c
	h := c.h
	p.queue = p.queue[:0]
	p.replayBad.reset()
	for i, oi := range c.upd {
		if c.pAt[i] > at {
			continue
		}
		o := &h.Ops[oi]
		switch o.Kind {
		case OpEnqueue:
			p.queue = append(p.queue, o.Val)
		case OpDequeue:
			if len(p.queue) == 0 {
				p.replayBad.put(uint64(i), Violation{
					Class: Reordered, Op: oi, Kind: o.Kind, Val: o.Ret,
					Detail: fmt.Sprintf("%v durable before the enqueue that supplied its value", *o),
				})
				continue
			}
			if p.queue[0] != o.Ret {
				p.replayBad.put(uint64(i), Violation{
					Class: Phantom, Op: oi, Kind: o.Kind, Val: o.Ret,
					Detail: fmt.Sprintf("%v but the durable linearization order dequeues %d", *o, p.queue[0]),
				})
			}
			p.queue = p.queue[1:]
		}
	}
	p.replayBad.flush()
}

// compareSet diffs the expected keyed-set contents against the recovery
// walk's, judging again only the dirty slots and the keys the walk
// changed. A report it cannot relate to the last one starts it from an
// empty set with every slot dirty, and the recovered keys beyond the
// slots are judged from a scan of the recovered set.
func (p *Pass) compareSet(at engine.Time, rep *recovery.Report) {
	c := p.c
	var got map[uint64]uint64
	if rep.Set != nil {
		got = rep.Set.Members
	}
	changed, warm := rep.ChangedSince(p.rep)
	if !warm {
		p.cmp.reset()
		for j := range c.keys {
			p.markDirty(int32(j))
		}
		for k, v := range got { // maprange:ok — flush sorts by key
			if _, ok := slices.BinarySearch(c.keys, k); !ok {
				p.cmp.put(k, unexplained(k, v, -1))
			}
		}
	}
	for _, k := range changed {
		if j, ok := slices.BinarySearch(c.keys, k); ok {
			p.markDirty(int32(j))
		} else if v, in := got[k]; in {
			p.cmp.put(k, unexplained(k, v, -1))
		} else {
			p.cmp.drop(k)
		}
	}
	for _, j := range p.dirtyList {
		p.dirty[j] = false
		if v, bad := p.judge(j, at, got); bad {
			p.cmp.put(c.keys[j], v)
		} else if warm {
			p.cmp.drop(c.keys[j])
		}
	}
	p.dirtyList = p.dirtyList[:0]
	p.cmp.flush()
}

// judge compares slot j's expected entry with the recovered one and
// returns the slot's violation, if any.
func (p *Pass) judge(j int32, at engine.Time, got map[uint64]uint64) (Violation, bool) {
	c := p.c
	k := c.keys[j]
	have, inHave := got[k]
	switch {
	case !p.has[j]:
		if inHave {
			return unexplained(k, have, int(p.ghost[j])), true
		}
	case !inHave:
		// A durable update can legally be invisible after a crash: with
		// elided-acquire traversals (the skip list's plain index-level
		// loads) nothing orders the persist of the third-party link that
		// makes its node reachable, so a correct mechanism can recover a
		// happens-before-closed SUBSET of the durable prefix. The loss is
		// a violation only when the durable write set is not closed
		// beneath the op itself: its linearization persisted while a
		// write it was ordered after — its own node stores, or anything
		// it acquired — did not. That write-level reordering is the ARP
		// gap; no buffering explains it.
		ui := p.last[j]
		if ui >= 0 && c.needW[ui] > at {
			oi := c.upd[ui]
			o := &c.h.Ops[oi]
			return Violation{
				Class: AckedLost, Op: oi, Kind: o.Kind, Key: k, Val: p.val[j],
				Detail: fmt.Sprintf("%v acknowledged and durable (linearization persisted t=%d) but key %d is missing from the recovered state: happens-before-earlier write %v is not durable (persists t=%s)",
					*o, c.pAt[ui], k, c.needWOf[ui], timeStr(c.needW[ui])),
			}, true
		}
	case have != p.val[j]:
		oi := c.upd[p.last[j]]
		return Violation{
			Class: Phantom, Op: oi, Kind: c.h.Ops[oi].Kind, Key: k, Val: have,
			Detail: fmt.Sprintf("key %d recovered with value %d, durable history says %d", k, have, p.val[j]),
		}, true
	}
	return Violation{}, false
}

// unexplained is the phantom of a recovered key k (value v) that no
// durable update explains; op is the key's first non-durable
// key-creating update, its likely source (-1: none).
func unexplained(k, v uint64, op int) Violation {
	return Violation{
		Class: Phantom, Op: op, Kind: OpInsert, Key: k, Val: v,
		Detail: fmt.Sprintf("recovered state contains key %d (val %d) that no durable operation explains", k, v),
	}
}

// compareQueue diffs the expected FIFO contents against the recovery
// walk's, position by position from the head, appending to out.
func (p *Pass) compareQueue(at engine.Time, rep *recovery.Report, out []Violation) []Violation {
	var got []uint64
	if rep.Queue != nil {
		got = rep.Queue.Values
	}
	want := p.queue
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return append(out, Violation{
				Class: Phantom, Op: -1, Kind: OpEnqueue, Val: got[i],
				Detail: fmt.Sprintf("queue position %d recovered value %d, durable history says %d", i, got[i], want[i]),
			}) // positions past a mismatch are not comparable
		}
	}
	for i := n; i < len(want); i++ {
		// Same write-level closure test as the keyed sets: a durable
		// enqueue missing from the recovered queue is a violation only
		// when its linearization outran a happens-before-earlier write.
		ui := p.durableEnqueueOf(want[i], at)
		if ui < 0 || p.c.needW[ui] <= at {
			continue
		}
		oi := p.c.upd[ui]
		out = append(out, Violation{
			Class: AckedLost, Op: oi, Kind: OpEnqueue, Val: want[i],
			Detail: fmt.Sprintf("%v acknowledged and durable but value %d is missing from the recovered queue: happens-before-earlier write %v is not durable (persists t=%s)",
				p.c.h.Ops[oi], want[i], p.c.needWOf[ui], timeStr(p.c.needW[ui])),
		})
	}
	for i := n; i < len(got); i++ {
		out = append(out, Violation{
			Class: Phantom, Op: -1, Kind: OpEnqueue, Val: got[i],
			Detail: fmt.Sprintf("recovered queue holds value %d at position %d that no durable operation explains", got[i], i),
		})
	}
	return out
}

// durableEnqueueOf returns the upd index of the earliest enqueue of
// value v durable at at (-1: none).
func (p *Pass) durableEnqueueOf(v uint64, at engine.Time) int {
	c := p.c
	k, _ := slices.BinarySearchFunc(c.enq, v, func(e enqRef, v uint64) int { return cmp.Compare(e.val, v) })
	for ; k < len(c.enq) && c.enq[k].val == v; k++ {
		if i := c.enq[k].i; c.pAt[i] <= at {
			return int(i)
		}
	}
	return -1
}

// violSet is a set of violations ordered by a key (an update index or a
// data key). put and drop queue changes; flush applies them in one
// merge, a later change to a key winning over an earlier one.
type violSet struct {
	list, spare []keyedViolation
	changes     []keyedViolation // Class 0: drop
}

type keyedViolation struct {
	k uint64
	v Violation
}

func (s *violSet) put(k uint64, v Violation) {
	s.changes = append(s.changes, keyedViolation{k, v})
}

func (s *violSet) drop(k uint64) { s.changes = append(s.changes, keyedViolation{k: k}) }

func (s *violSet) reset() {
	s.list, s.changes = s.list[:0], s.changes[:0]
}

func (s *violSet) flush() {
	ch := s.changes
	if len(ch) == 0 {
		return
	}
	slices.SortStableFunc(ch, func(a, b keyedViolation) int { return cmp.Compare(a.k, b.k) })
	out, list := s.spare[:0], s.list
	i := 0
	for j, e := range ch {
		if j+1 < len(ch) && ch[j+1].k == e.k {
			continue
		}
		for i < len(list) && list[i].k < e.k {
			out = append(out, list[i])
			i++
		}
		if i < len(list) && list[i].k == e.k {
			i++
		}
		if e.v.Class != 0 {
			out = append(out, e)
		}
	}
	s.list, s.spare = append(out, list[i:]...), list[:0]
	s.changes = ch[:0]
}
