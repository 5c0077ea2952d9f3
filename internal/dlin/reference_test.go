package dlin

import (
	"fmt"
	"slices"

	"lrp/internal/engine"
	"lrp/internal/model"
	"lrp/internal/recovery"
)

// The checker as first written, kept as the reference the incremental
// one must agree with: a happens-before closure that compares every pair
// of updates, and a check that replays the whole durable prefix and
// scans the history for every key it reports on. Both are quadratic and
// obviously follow the definitions.

// refSchedule is a Checker's per-update schedule, in linearization order.
type refSchedule struct {
	pAt, need, needW []engine.Time
	needOf           []int
	needWOf          []model.Stamp
}

// scheduleOf returns c's schedule.
func scheduleOf(c *Checker) refSchedule {
	return refSchedule{c.pAt, c.need, c.needW, c.needOf, c.needWOf}
}

// refScheduleOf computes c's schedule pairwise: need[i] is the latest
// pAt among the updates whose linearization happens before upd[i]'s, the
// first such in linearization order.
func refScheduleOf(c *Checker) refSchedule {
	h, tr := c.h, c.tr
	n := len(c.upd)
	s := refSchedule{
		pAt: make([]engine.Time, n), need: make([]engine.Time, n), needW: make([]engine.Time, n),
		needOf: make([]int, n), needWOf: make([]model.Stamp, n),
	}
	hn := tr.NewHBNeed()
	for i, oi := range c.upd {
		s.pAt[i] = tr.DurableAt(h.Ops[oi].Lin)
		s.needOf[i] = -1
		s.needW[i], s.needWOf[i] = hn.Of(h.Ops[oi].Lin)
	}
	for i, oi := range c.upd {
		for j, oj := range c.upd {
			if i == j {
				continue
			}
			if s.pAt[j] > s.need[i] && tr.HappensBefore(h.Ops[oj].Lin, h.Ops[oi].Lin) {
				s.need[i] = s.pAt[j]
				s.needOf[i] = oj
			}
		}
	}
	return s
}

// refCheck is one stateless check of the crash instant at against rep:
// closure over every durable update, a replay of the whole durable
// prefix, and a diff against the recovered state, in the order Check
// returns violations.
func refCheck(c *Checker, at engine.Time, rep *recovery.Report) []Violation {
	h := c.h
	var out []Violation
	durable := func(i int) bool { return c.pAt[i] <= at }
	for i, oi := range c.upd {
		if durable(i) && c.need[i] > at {
			o := h.Ops[oi]
			out = append(out, Violation{
				Class: Reordered, At: at, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
				Detail: fmt.Sprintf("%v durable (persisted t=%d) but happens-before predecessor %v is not (persists t=%s)",
					o, c.pAt[i], h.Ops[c.needOf[i]], timeStr(c.need[i])),
			})
		}
	}
	// Replay the durable prefix in linearization order.
	expect := map[uint64]uint64{}
	var queue []uint64
	for i, oi := range c.upd {
		if !durable(i) {
			continue
		}
		o := h.Ops[oi]
		switch o.Kind {
		case OpInsert, OpSet:
			expect[o.Key] = o.Val
		case OpDelete:
			delete(expect, o.Key)
		case OpCAS:
			cur, present := expect[o.Key]
			switch {
			case !present:
				out = append(out, Violation{
					Class: Reordered, At: at, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
					Detail: fmt.Sprintf("%v durable before the write that supplied its expected value", o),
				})
				continue
			case cur != o.Exp:
				out = append(out, Violation{
					Class: Phantom, At: at, Op: oi, Kind: o.Kind, Key: o.Key, Val: o.Val,
					Detail: fmt.Sprintf("%v but the durable linearization order leaves value %d on key %d", o, cur, o.Key),
				})
			}
			expect[o.Key] = o.Val
		case OpEnqueue:
			queue = append(queue, o.Val)
		case OpDequeue:
			if len(queue) == 0 {
				out = append(out, Violation{
					Class: Reordered, At: at, Op: oi, Kind: o.Kind, Val: o.Ret,
					Detail: fmt.Sprintf("%v durable before the enqueue that supplied its value", o),
				})
				continue
			}
			if queue[0] != o.Ret {
				out = append(out, Violation{
					Class: Phantom, At: at, Op: oi, Kind: o.Kind, Val: o.Ret,
					Detail: fmt.Sprintf("%v but the durable linearization order dequeues %d", o, queue[0]),
				})
			}
			queue = queue[1:]
		}
	}
	if h.Queue() {
		return append(out, refCompareQueue(c, at, rep, queue)...)
	}
	return append(out, refCompareSet(c, at, rep, expect)...)
}

// refLastDurableOn is the latest update on key k durable at at, as an upd
// index (-1: none).
func refLastDurableOn(c *Checker, at engine.Time, k uint64) int {
	for i := len(c.upd) - 1; i >= 0; i-- {
		if c.h.Ops[c.upd[i]].Key == k && c.pAt[i] <= at {
			return i
		}
	}
	return -1
}

func refCompareSet(c *Checker, at engine.Time, rep *recovery.Report, expect map[uint64]uint64) []Violation {
	var got map[uint64]uint64
	if rep.Set != nil {
		got = rep.Set.Members
	}
	var keys []uint64
	for k := range expect { // maprange:ok — sorted below
		keys = append(keys, k)
	}
	for k := range got { // maprange:ok — sorted below
		if _, ok := expect[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var out []Violation
	for _, k := range keys {
		want, inWant := expect[k]
		have, inHave := got[k]
		switch {
		case inWant && !inHave:
			ui := refLastDurableOn(c, at, k)
			if ui >= 0 && c.needW[ui] > at {
				o := c.h.Ops[c.upd[ui]]
				out = append(out, Violation{
					Class: AckedLost, At: at, Op: c.upd[ui], Kind: o.Kind, Key: k, Val: want,
					Detail: fmt.Sprintf("%v acknowledged and durable (linearization persisted t=%d) but key %d is missing from the recovered state: happens-before-earlier write %v is not durable (persists t=%s)",
						o, c.pAt[ui], k, c.needWOf[ui], timeStr(c.needW[ui])),
				})
			}
		case inWant && want != have:
			ui := refLastDurableOn(c, at, k)
			o := c.h.Ops[c.upd[ui]]
			out = append(out, Violation{
				Class: Phantom, At: at, Op: c.upd[ui], Kind: o.Kind, Key: k, Val: have,
				Detail: fmt.Sprintf("key %d recovered with value %d, durable history says %d", k, have, want),
			})
		case !inWant:
			// The first non-durable key-creating update on k is the likely
			// source of the phantom.
			op := -1
			for i, oi := range c.upd {
				if o := c.h.Ops[oi]; o.Key == k && creates(o.Kind) && c.pAt[i] > at {
					op = oi
					break
				}
			}
			out = append(out, Violation{
				Class: Phantom, At: at, Op: op, Kind: OpInsert, Key: k, Val: have,
				Detail: fmt.Sprintf("recovered state contains key %d (val %d) that no durable operation explains", k, have),
			})
		}
	}
	return out
}

func refCompareQueue(c *Checker, at engine.Time, rep *recovery.Report, want []uint64) []Violation {
	var got []uint64
	if rep.Queue != nil {
		got = rep.Queue.Values
	}
	var out []Violation
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return append(out, Violation{
				Class: Phantom, At: at, Op: -1, Kind: OpEnqueue, Val: got[i],
				Detail: fmt.Sprintf("queue position %d recovered value %d, durable history says %d", i, got[i], want[i]),
			})
		}
	}
	for _, v := range want[n:] {
		ui := -1
		for i, oi := range c.upd {
			if o := c.h.Ops[oi]; o.Kind == OpEnqueue && o.Val == v && c.pAt[i] <= at {
				ui = i
				break
			}
		}
		if ui < 0 || c.needW[ui] <= at {
			continue
		}
		o := c.h.Ops[c.upd[ui]]
		out = append(out, Violation{
			Class: AckedLost, At: at, Op: c.upd[ui], Kind: OpEnqueue, Val: v,
			Detail: fmt.Sprintf("%v acknowledged and durable but value %d is missing from the recovered queue: happens-before-earlier write %v is not durable (persists t=%s)",
				o, v, c.needWOf[ui], timeStr(c.needW[ui])),
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

// RefCheck is refCheck, for the tests outside the package.
func RefCheck(c *Checker, at engine.Time, rep *recovery.Report) []Violation {
	return refCheck(c, at, rep)
}

// ScheduleDiff describes the first difference between c's schedule and
// the pairwise reference's, "" when there is none.
func ScheduleDiff(c *Checker) string {
	got, want := scheduleOf(c), refScheduleOf(c)
	for i := range c.upd {
		g := fmt.Sprint(got.pAt[i], got.need[i], got.needOf[i], got.needW[i], got.needWOf[i])
		w := fmt.Sprint(want.pAt[i], want.need[i], want.needOf[i], want.needW[i], want.needWOf[i])
		if g != w {
			return fmt.Sprintf("update %d (op#%d): pAt need needOf needW needWOf %s, pairwise %s", i, c.upd[i], g, w)
		}
	}
	return ""
}
