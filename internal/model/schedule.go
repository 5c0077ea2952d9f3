package model

import (
	"cmp"
	"slices"
	"sort"

	"lrp/internal/engine"
)

// CutSchedule answers CheckCut's yes/no question for every crash instant
// at once. A write w durable at p_w (DurableAt) breaks the cut at crash
// t iff p_w <= t and some immediate predecessor that CheckCut requires
// under the schedule's semantics is durable only after t. With need(w)
// the latest durable instant among those predecessors, w therefore
// violates exactly on the half-open interval [p_w, need(w)), and the cut
// at t is inconsistent iff t lies in the union of these intervals. The
// schedule stores that union as sorted, disjoint spans; it is immutable
// and safe for concurrent readers.
type CutSchedule struct {
	spans []cutSpan
}

// cutSpan is one half-open interval [lo, hi) of inconsistent instants.
type cutSpan struct{ lo, hi engine.Time }

// CutSchedule builds the violation schedule for sem from the snapshot's
// prefix maxima. Call it once per sweep, after the run completes
// (persist times are final); each Bad query is then a binary search.
func (h *HBNeed) CutSchedule(sem Semantics) *CutSchedule {
	tr, pm := h.tr, h.pm
	var spans []cutSpan
	for i := range tr.threads {
		ts := &tr.threads[i]
		for s := uint64(1); s <= ts.seq; s++ {
			rec := &ts.writes[s-1]
			if need := tr.cutNeed(pm, i, s, sem); rec.durableAt < need {
				spans = append(spans, cutSpan{rec.durableAt, need})
			}
		}
	}
	slices.SortFunc(spans, func(a, b cutSpan) int { return cmp.Compare(a.lo, b.lo) })
	// Merge overlapping and touching spans in place.
	out := spans[:0]
	for _, sp := range spans {
		if n := len(out); n > 0 && sp.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, sp.hi)
			continue
		}
		out = append(out, sp)
	}
	return &CutSchedule{spans: slices.Clip(out)}
}

// cutNeed is need(w) for write s of thread tid: the latest persist time
// among the predecessors CheckCut requires under sem, 0 when there are
// none. Its three rules are CheckCut's:
//   - po-before-release (RP only): a release needs every earlier write of
//     its thread, so the thread's prefix maximum up to s-1;
//   - same-address-po: the thread's previous write to the same address;
//   - acquired-release: for each thread t whose k-th release w's acquire
//     clock covers, t's prefix maximum up to that release (RP) or up to
//     the write just before it (ARP).
func (tr *Tracker) cutNeed(pm prefixMax, tid int, s uint64, sem Semantics) engine.Time {
	rec := &tr.threads[tid].writes[s-1]
	var need engine.Time
	if sem == RP && rec.relIdx != 0 {
		need = max(need, pm.maxTo[tid][s-1])
	}
	if rec.prevSameAddr != 0 {
		need = max(need, tr.threads[tid].writes[rec.prevSameAddr-1].durableAt)
	}
	for t := range tr.threads {
		k := rec.acq.Get(t)
		if k == 0 {
			continue
		}
		upTo := tr.threads[t].relSeq[k-1]
		if sem == ARP {
			upTo--
		}
		need = max(need, pm.maxTo[t][upTo])
	}
	return need
}

// Bad reports whether the cut at crash instant t is inconsistent, i.e.
// whether CheckCut(t, sem) would return any violation.
func (c *CutSchedule) Bad(t engine.Time) bool {
	i := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].hi > t })
	return i < len(c.spans) && c.spans[i].lo <= t
}
