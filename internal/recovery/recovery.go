// Package recovery holds the report types of null recovery (Izraelevitz
// & Scott): what a walk over the durable NVM image left by a (simulated)
// crash recovered, and what it had to quarantine. The walks themselves
// live with the layouts they read — each log-free structure's Recover in
// package lfds, the kv store's in package kv — and run through Walk,
// which re-walks only the parts of a structure whose lines changed since
// the last walk over the same image.
//
// When the run enforced Release Persistency (SB, BB, LRP), the image is a
// consistent cut and every walk succeeds — that is the paper's
// correctness claim, and the crash sweeps exercise it at every crash
// boundary. Under ARP or NOP, a walk can encounter a node whose
// linking pointer persisted before its contents: a reachable node with a
// zero key or a value that fails the integrity convention. The walkers
// report those as corruption instead of crashing, which is exactly what a
// real recovery procedure would face.
package recovery

import (
	"fmt"
	"maps"
	"slices"

	"lrp/internal/isa"
)

// DefaultVal is the value-integrity convention the workloads use: the
// value stored with key k is always 2k+1 (odd, nonzero). A reachable node
// violating it was linked before its initialization persisted.
func DefaultVal(key uint64) uint64 { return key*2 + 1 }

// Corruption describes one structural violation found in a crash image.
type Corruption struct {
	Structure string
	Node      isa.Addr
	Reason    string
}

func (c Corruption) Error() string {
	return fmt.Sprintf("recovery(%s): node %v: %s", c.Structure, c.Node, c.Reason)
}

// SetState is the recovered logical content of a keyed structure.
type SetState struct {
	// Members maps present keys to their values.
	Members map[uint64]uint64
	// Nodes counts nodes visited (including logically deleted ones).
	Nodes int
}

// QueueState is the recovered logical content of the MS queue.
type QueueState struct {
	// Values are the queued values from head to tail.
	Values []uint64
	Nodes  int
}

// Report is the outcome of a hardened recovery walk. Rather than abort on
// the first structural violation, a walk quarantines the offending node
// and recovers everything else it can reach — what a production recovery
// procedure must do when the image was left by a faulty NVM rather than
// an idealized one. Err gives the strict verdict: each walk checks in a
// fixed order, so the first quarantined violation is the one an aborting
// walk would have stopped at.
type Report struct {
	// Structure names the walked structure.
	Structure string
	// Set holds the recovered contents of a keyed structure (list,
	// hashmap, BST, skip list, kv store); Queue those of the MS queue.
	// Exactly one is non-nil.
	Set   *SetState
	Queue *QueueState
	// Quarantined lists the nodes excluded from the recovered contents,
	// with the violation that condemned each.
	Quarantined []Corruption
	// Abandoned counts walks (chains, subtrees) truncated at a node whose
	// links could not be trusted: an unknown suffix of the structure was
	// lost beyond them.
	Abandoned int

	members []member // the members a walk unit recovered (Walk)
	// memo and gen place a report Walk built in its image's sequence of
	// reports (ChangedSince); a clone has no memo.
	memo *walkMemo
	gen  uint64
}

// ChangedSince returns the keys whose membership or value in r's Set
// differs from prev's, and true, when r is prev or the next report Walk
// built over the same image after prev. Any other pair, a clone
// included, it cannot relate, and it returns false. The slice is valid
// until the next Walk over the image. A queue report's Values are not
// covered: a new report means new Values.
func (r *Report) ChangedSince(prev *Report) ([]uint64, bool) {
	switch {
	case r == prev:
		return nil, r != nil
	case prev == nil || r.memo == nil || r.memo != prev.memo || r.gen != prev.gen+1 || r.gen != r.memo.gen:
		return nil, false
	}
	return r.memo.changed, true
}

// Recovered records key as a member with val. Walk enters the unit's
// members into Set.Members once the unit's walk is done.
func (r *Report) Recovered(key, val uint64) {
	r.members = append(r.members, member{key, val})
}

// Clone returns a deep copy of the report, which later walks over the
// same image leave alone.
func (r *Report) Clone() *Report {
	c := &Report{Structure: r.Structure, Abandoned: r.Abandoned, Quarantined: slices.Clone(r.Quarantined)}
	if r.Set != nil {
		c.Set = &SetState{Members: maps.Clone(r.Set.Members), Nodes: r.Set.Nodes}
	}
	if r.Queue != nil {
		c.Queue = &QueueState{Values: slices.Clone(r.Queue.Values), Nodes: r.Queue.Nodes}
	}
	return c
}

// Quarantine records that node was excluded from the recovered contents
// for reason.
func (r *Report) Quarantine(node isa.Addr, reason string) {
	r.Quarantined = append(r.Quarantined, Corruption{r.Structure, node, reason})
}

// Abandon quarantines node for reason and counts the walk truncated
// there: nothing beyond node can be trusted.
func (r *Report) Abandon(node isa.Addr, reason string) {
	r.Quarantine(node, reason)
	r.Abandoned++
}

// Clean reports whether the walk recovered the full structure: nothing
// quarantined, nothing abandoned. Under SB/BB/LRP every crash image —
// torn lines included — must produce a clean report; that is the paper's
// consistency claim under the hardened fault model.
func (r *Report) Clean() bool {
	return len(r.Quarantined) == 0 && r.Abandoned == 0
}

// Err returns nil for a clean report, else the first quarantined
// violation (or a summary error when only truncation occurred).
func (r *Report) Err() error {
	if r.Clean() {
		return nil
	}
	if len(r.Quarantined) > 0 {
		return r.Quarantined[0]
	}
	return fmt.Errorf("recovery(%s): %d walk(s) abandoned", r.Structure, r.Abandoned)
}

func (r *Report) String() string {
	n := 0
	if r.Set != nil {
		n = r.Set.Nodes
	} else if r.Queue != nil {
		n = r.Queue.Nodes
	}
	return fmt.Sprintf("recovery(%s): %d nodes recovered, %d quarantined, %d walks abandoned",
		r.Structure, n, len(r.Quarantined), r.Abandoned)
}
