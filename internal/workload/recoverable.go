package workload

import (
	"lrp/internal/lfds"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// Recoverable ties a finished run's structure anchors to the recovery
// walkers, so crash tooling can walk any reconstructed image without
// knowing which of the five structures the workload built.
type Recoverable interface {
	// Structure names the walked structure (one of Structures).
	Structure() string
	// Recover performs the hardened null-recovery walk over img:
	// corrupt nodes are quarantined into the report, never panicking.
	// Its Err is the strict verdict: nil iff the image recovered in full.
	Recover(img *mm.Memory) *recovery.Report
}

type recoverableSet struct {
	name string
	set  lfds.Set
}

func (r recoverableSet) Structure() string { return r.name }

func (r recoverableSet) Recover(img *mm.Memory) *recovery.Report {
	switch s := r.set.(type) {
	case *lfds.LinkedList:
		return recovery.ReportList(img, s.Head())
	case *lfds.HashMap:
		base, n := s.Buckets()
		return recovery.ReportHashMap(img, base, n, s.BucketOf)
	case *lfds.BST:
		return recovery.ReportBST(img, s.Root(), lfds.BSTSentinel)
	case *lfds.SkipList:
		return recovery.ReportSkipList(img, s.Head(), lfds.MaxHeight)
	}
	panic("workload: unknown set structure")
}

type recoverableQueue struct {
	q *lfds.Queue
}

func (r recoverableQueue) Structure() string { return "queue" }

func (r recoverableQueue) Recover(img *mm.Memory) *recovery.Report {
	head, tail := r.q.Anchors()
	return recovery.ReportQueue(img, head, tail)
}
