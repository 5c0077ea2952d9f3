package model

import (
	"fmt"

	"lrp/internal/engine"
)

// Semantics selects which persistency model's ordering rules the cut
// checker enforces.
type Semantics int

const (
	// RP checks the paper's Release Persistency (§4.1): the persisted
	// set must be downward closed under the full RC happens-before.
	RP Semantics = iota
	// ARP checks only the ARP-rule of Kolli et al. (§3.1): writes before
	// a release persist before writes after the matching acquire — but a
	// release may persist before its own preceding writes. An execution
	// can satisfy ARP while leaving an unrecoverable structure in NVM;
	// that gap is the paper's motivating observation.
	ARP Semantics = iota
)

func (s Semantics) String() string {
	switch s {
	case RP:
		return "RP"
	case ARP:
		return "ARP"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Violation reports one persisted write whose happens-before predecessor
// had not persisted at the crash instant — i.e., the NVM image is not a
// consistent cut.
type Violation struct {
	// Write is the persisted write.
	Write Stamp
	// Missing is an unpersisted predecessor of Write.
	Missing Stamp
	// Rule names the violated ordering rule.
	Rule string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s persisted but its %s predecessor %s did not", v.Write, v.Rule, v.Missing)
}

// CheckCut verifies that the set of writes durable by time crash (on
// DurableAt) forms a consistent cut under the given semantics. It
// returns all violations found (nil means the cut is consistent). The
// check is exact for the paper's RC model: it reports a violation iff
// some persisted write has an unpersisted happens-before predecessor.
// Crash sweeps ask only whether the cut is consistent and use
// CutSchedule, which answers that for every instant at once; CheckCut is
// its test oracle.
func (tr *Tracker) CheckCut(crash engine.Time, sem Semantics) []Violation {
	n := len(tr.threads)
	persisted := func(tid int, seq uint64) bool {
		return tr.threads[tid].writes[seq-1].durableAt <= crash
	}
	// prefix[t] = largest p such that writes 1..p of thread t all
	// persisted by the crash.
	prefix := make([]uint64, n)
	for t := range tr.threads {
		ts := &tr.threads[t]
		var p uint64
		for p < ts.seq && ts.writes[p].durableAt <= crash {
			p++
		}
		prefix[t] = p
	}

	var out []Violation
	for i := range tr.threads {
		ts := &tr.threads[i]
		for s := uint64(1); s <= ts.seq; s++ {
			rec := &ts.writes[s-1]
			if rec.durableAt > crash {
				continue
			}
			w := Stamp{i, s}
			// Rule: program order into a release — every earlier write of
			// the releasing thread precedes the release. RP only.
			if sem == RP && rec.relIdx != 0 && prefix[i] < s-1 {
				out = append(out, Violation{
					Write:   w,
					Missing: Stamp{i, prefix[i] + 1},
					Rule:    "po-before-release",
				})
			}
			// Rule: same-address program order. Both semantics (writes to
			// one address coalesce in order in every implementation).
			if rec.prevSameAddr != 0 && !persisted(i, rec.prevSameAddr) {
				out = append(out, Violation{
					Write:   w,
					Missing: Stamp{i, rec.prevSameAddr},
					Rule:    "same-address-po",
				})
			}
			// Cross-thread rules via the acquire clock.
			for t := 0; t < n; t++ {
				k := rec.acq.Get(t)
				if k == 0 {
					continue
				}
				relSeq := tr.threads[t].relSeq[k-1]
				// Under RP the acquired release and everything before it
				// must have persisted. Under ARP only the writes strictly
				// before the release are ordered; the release itself may
				// trail.
				need := relSeq
				if sem == ARP {
					need = relSeq - 1
				}
				if prefix[t] < need {
					out = append(out, Violation{
						Write:   w,
						Missing: Stamp{t, prefix[t] + 1},
						Rule:    fmt.Sprintf("acquired-release(%s)", sem),
					})
				}
			}
		}
	}
	return out
}

// PersistedCount reports how many writes were durable by time crash (on
// DurableAt), and how many writes were issued in total.
func (tr *Tracker) PersistedCount(crash engine.Time) (persisted, total uint64) {
	for t := range tr.threads {
		ts := &tr.threads[t]
		total += ts.seq
		for s := range ts.writes {
			if ts.writes[s].durableAt <= crash {
				persisted++
			}
		}
	}
	return persisted, total
}

// HBNeed answers the write-level closure query "when does the last
// happens-before predecessor of this write persist?" — the test behind
// the durable-linearizability checker's acked-but-lost classification: a
// write durable at t with Of(w) > t proves the durable write set is not
// happens-before closed beneath w (an RP violation), whereas Of(w) <= t
// means every cause of w is durable and any invisibility of its effect
// is legal buffering. Persist times here, as in every checker, are
// DurableAt instants. It snapshots per-thread running maxima of those
// times at construction, so each query is O(threads + same-address
// chain) and the structure is safe for concurrent readers.
type HBNeed struct {
	tr *Tracker
	pm prefixMax
}

// prefixMax is the per-thread running maximum of persist times that both
// HBNeed and CutSchedule answer from: maxTo[t][s] is the latest persist
// time among thread t's writes 1..s (maxTo[t][0] = 0), and argTo[t][s]
// the seq achieving it.
type prefixMax struct {
	maxTo [][]engine.Time
	argTo [][]uint64
}

// prefixMax snapshots the running maxima. Persist times must be final.
func (tr *Tracker) prefixMax() prefixMax {
	pm := prefixMax{
		maxTo: make([][]engine.Time, len(tr.threads)),
		argTo: make([][]uint64, len(tr.threads)),
	}
	for t := range tr.threads {
		ts := &tr.threads[t]
		m := make([]engine.Time, ts.seq+1)
		a := make([]uint64, ts.seq+1)
		for s := uint64(1); s <= ts.seq; s++ {
			m[s], a[s] = m[s-1], a[s-1]
			if p := ts.writes[s-1].durableAt; p > m[s] {
				m[s], a[s] = p, s
			}
		}
		pm.maxTo[t], pm.argTo[t] = m, a
	}
	return pm
}

// NewHBNeed builds the prefix-maximum snapshot. Call it once per sweep,
// after the run completes (persist times are final).
func (tr *Tracker) NewHBNeed() *HBNeed {
	return &HBNeed{tr: tr, pm: tr.prefixMax()}
}

// Of returns the latest persist time among w's happens-before
// predecessor writes and a predecessor achieving it; (0, Stamp{}) when w
// has none. The predecessor set follows HappensBefore: program order
// into a release, the same-address chain (including, transitively, the
// full prefix behind any release on it), and everything at or before an
// acquired release of another thread.
func (h *HBNeed) Of(w Stamp) (engine.Time, Stamp) {
	tr := h.tr
	rec := &tr.threads[w.Tid].writes[w.Seq-1]
	var best engine.Time
	var at Stamp
	prefix := func(t int, upTo uint64) {
		if upTo > 0 && h.pm.maxTo[t][upTo] > best {
			best, at = h.pm.maxTo[t][upTo], Stamp{t, h.pm.argTo[t][upTo]}
		}
	}
	if rec.relIdx != 0 {
		prefix(w.Tid, w.Seq-1)
	} else {
		for s := rec.prevSameAddr; s != 0; {
			r := &tr.threads[w.Tid].writes[s-1]
			if r.relIdx != 0 {
				// A release on the chain pulls in its whole po-prefix.
				prefix(w.Tid, s)
				break
			}
			if r.durableAt > best {
				best, at = r.durableAt, Stamp{w.Tid, s}
			}
			s = r.prevSameAddr
		}
	}
	for t := range tr.threads {
		k := rec.acq.Get(t)
		if k != 0 {
			prefix(t, tr.threads[t].relSeq[k-1])
		}
	}
	return best, at
}

// HappensBefore reports whether write a happens-before write b under the
// paper's RC rules (exposed for tests and tooling). It answers from the
// same metadata the checker uses.
func (tr *Tracker) HappensBefore(a, b Stamp) bool {
	if a.Tid == b.Tid {
		if a.Seq >= b.Seq {
			return false
		}
		recB := &tr.threads[b.Tid].writes[b.Seq-1]
		// po into own release: every earlier write precedes a release.
		if recB.relIdx != 0 {
			return true
		}
		// same-address chain back from b.
		for s := recB.prevSameAddr; s != 0; {
			if s == a.Seq {
				return true
			}
			s = tr.threads[b.Tid].writes[s-1].prevSameAddr
		}
	}
	// cross-thread (or same-thread through a re-acquired release): a must
	// precede some release of a.Tid whose index b's clock covers.
	recB := &tr.threads[b.Tid].writes[b.Seq-1]
	k := recB.acq.Get(a.Tid)
	if k == 0 {
		return false
	}
	return a.Seq <= tr.threads[a.Tid].relSeq[k-1]
}
