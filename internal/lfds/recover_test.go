package lfds

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lrp/internal/isa"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// Anchors of the hand-made images below.
const (
	tHead  = isa.Addr(0x100) // list head / skip-list tower / BST root / queue head
	tTail  = isa.Addr(0x140) // queue tail
	tCell1 = isa.Addr(0x140) // hash-map bucket 1 (buckets are a line apart)
)

func walkList(img *mm.Memory) *recovery.Report {
	return (&LinkedList{list: sortedList{head: tHead}}).Recover(img)
}
func walkBST(img *mm.Memory) *recovery.Report  { return (&BST{root: tHead}).Recover(img) }
func walkSkip(img *mm.Memory) *recovery.Report { return (&SkipList{head: tHead}).Recover(img) }
func walkQueue(img *mm.Memory) *recovery.Report {
	return (&Queue{head: tHead, tail: tTail}).Recover(img)
}

// walkHashMap walks a two-bucket table: keys 1, 4, 5, 8, 9, ... hash to
// bucket 0 and 2, 3, 6, 7, 10, ... to bucket 1.
func walkHashMap(img *mm.Memory) *recovery.Report {
	return (&HashMap{buckets: tHead, nbuckets: 2}).Recover(img)
}

// tightSteps lowers the walk step bound for the duration of a test, so
// cycle tests reach the bound without walking millions of steps.
func tightSteps(t *testing.T, n int) {
	t.Helper()
	old := WalkStepBound
	WalkStepBound = n
	t.Cleanup(func() { WalkStepBound = old })
}

func words(img *mm.Memory, a isa.Addr, ws ...uint64) {
	for i, w := range ws {
		img.Write(a+isa.Addr(8*i), w)
	}
}

func dv(k uint64) uint64 { return recovery.DefaultVal(k) }

// renderReport is a report's full observable content, one finding a
// line: the header carries Abandoned, Nodes and the sorted members (or
// queued values); each line after it a quarantined node and its reason.
func renderReport(rep *recovery.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s abandoned=%d", rep.Structure, rep.Abandoned)
	if rep.Set != nil {
		keys := make([]uint64, 0, len(rep.Set.Members))
		for k := range rep.Set.Members { // maprange:ok — sorted below
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Fprintf(&b, " nodes=%d members=[", rep.Set.Nodes)
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", k, rep.Set.Members[k])
		}
		b.WriteByte(']')
	}
	if rep.Queue != nil {
		fmt.Fprintf(&b, " nodes=%d values=%v", rep.Queue.Nodes, rep.Queue.Values)
	}
	for _, c := range rep.Quarantined {
		if c.Structure != rep.Structure {
			fmt.Fprintf(&b, "\nforeign structure %q:", c.Structure)
		}
		fmt.Fprintf(&b, "\n%v %s", c.Node, c.Reason)
	}
	return b.String()
}

// TestWalkerReasonsTable pins every walker's full report on hand-made
// images that reach each of its findings: the quarantined nodes, their
// reasons and order, Abandoned, Nodes and Members.
func TestWalkerReasonsTable(t *testing.T) {
	cases := []struct {
		name  string
		steps int // step bound for the walk (0: the default)
		build func(img *mm.Memory)
		walk  func(img *mm.Memory) *recovery.Report
		want  string
	}{
		{
			name: "list/healthy-with-deleted",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 5, dv(5), 0x2000)
				words(img, 0x2000, 9, dv(9), 0x3000|1) // deleted: marked next
				words(img, 0x3000, 12, dv(12), 0)
			},
			walk: walkList,
			want: "linkedlist abandoned=0 nodes=3 members=[5:11 12:25]",
		},
		{
			name: "list/every-finding",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 0, 0, 0x2000)         // linked before its init persisted
				words(img, 0x2000, 5, 99, 0x3000)        // torn value
				words(img, 0x3000, 9, dv(9), 0x4000)     // healthy
				words(img, 0x4000, 7, dv(7), 0x5000)     // out of order
				words(img, 0x5000, 11, dv(11), 0x6004|1) // healthy, marked, misaligned next
			},
			walk: walkList,
			want: "linkedlist abandoned=1 nodes=2 members=[9:19]\n" +
				"0x1000 reachable node with uninitialized key\n" +
				"0x2000 value 99 fails integrity convention for key 5 (want 11)\n" +
				"0x4000 key order violated: 7 after 9\n" +
				"0x6004 misaligned node pointer",
		},
		{
			name:  "list/cycle",
			steps: 5,
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 5, dv(5), 0x2000)
				words(img, 0x2000, 9, dv(9), 0x1000)
			},
			walk: walkList,
			want: "linkedlist abandoned=1 nodes=2 members=[5:11 9:19]\n" +
				"0x1000 key order violated: 5 after 9\n" +
				"0x2000 key order violated: 9 after 9\n" +
				"0x1000 key order violated: 5 after 9\n" +
				"0x2000 key order violated: 9 after 9\n" +
				"0x100 walk exceeded step bound (cycle?)",
		},
		{
			name: "hashmap/misplaced-after-other-findings",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000) // bucket 0
				words(img, 0x1000, 1, dv(1), 0x2000)
				words(img, 0x2000, 0, 0, 0x3000)
				words(img, 0x3000, 2, dv(2), 0x4000) // hashes to bucket 1
				words(img, 0x4000, 4, 99, 0x5000)
				words(img, 0x5000, 6, dv(6), 0x6000) // hashes to bucket 1
				words(img, 0x6000, 7, dv(7), 0|1)    // hashes to bucket 1, deleted
				img.Write(tCell1, 0x7000)
				words(img, 0x7000, 3, dv(3), 0x8000)
				words(img, 0x8000, 10, dv(10), 0)
			},
			walk: walkHashMap,
			want: "hashmap abandoned=0 nodes=6 members=[1:3 3:7 10:21]\n" +
				"0x2000 reachable node with uninitialized key\n" +
				"0x4000 value 99 fails integrity convention for key 4 (want 9)\n" +
				"0x100 key 2 found in bucket 0, hashes to 1\n" +
				"0x100 key 6 found in bucket 0, hashes to 1",
		},
		{
			name:  "hashmap/cycle-and-misaligned",
			steps: 3,
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 1, dv(1), 0x1000)
				img.Write(tCell1, 0x2000)
				words(img, 0x2000, 3, dv(3), 0x3008|2)
				words(img, 0x3008, 6, dv(6), 0x300c)
			},
			walk: walkHashMap,
			want: "hashmap abandoned=2 nodes=3 members=[1:3 3:7 6:13]\n" +
				"0x1000 key order violated: 1 after 1\n" +
				"0x1000 key order violated: 1 after 1\n" +
				"0x1000 key order violated: 1 after 1\n" +
				"0x100 walk exceeded step bound (cycle?)\n" +
				"0x300c misaligned node pointer",
		},
		{
			name: "bstree/healthy",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 10, 0, 0x2000, 0x3000|2) // tagged edge
				words(img, 0x2000, 5, dv(5), 0, 0)
				words(img, 0x3000, 20, 0, 0x4000|1, 0x5000) // flagged edge
				words(img, 0x4000, 15, dv(15), 0, 0)
				words(img, 0x5000, BSTSentinel, 0, 0, 0)
			},
			walk: walkBST,
			want: "bstree abandoned=0 nodes=5 members=[5:11 15:31]",
		},
		{
			name: "bstree/every-finding",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 10, 0, 0x2000, 0x3000)
				words(img, 0x2000, 5, 0, 0x6000, 0x7000)
				words(img, 0x6000, 0, 0, 0, 0)       // uninitialized leaf
				words(img, 0x7000, 12, dv(12), 0, 0) // escapes [5,9]
				words(img, 0x3000, 20, 0, 0x4000, 0x5000)
				words(img, 0x4000, 15, 0, 0x8004, 0x9000) // misaligned left child
				words(img, 0x9000, 17, 99, 0, 0)          // torn leaf value
				words(img, 0x5000, 30, 0, 0xa000, 0)      // missing right child
			},
			walk: walkBST,
			want: "bstree abandoned=4 nodes=5 members=[]\n" +
				"0x6000 reachable node with uninitialized key\n" +
				"0x7000 key 12 escapes route bounds [5,9]\n" +
				"0x8004 misaligned node pointer\n" +
				"0x9000 value 99 fails integrity convention for key 17 (want 35)\n" +
				"0x5000 internal node with a missing child",
		},
		{
			name:  "bstree/cycle",
			steps: 4,
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 10, 0, 0x2000, 0x1000) // right child is itself
				words(img, 0x2000, 5, dv(5), 0, 0)
			},
			walk: walkBST,
			want: "bstree abandoned=2 nodes=3 members=[5:11]\n" +
				"0x2000 key 5 escapes route bounds [10,9]\n" +
				"0x1000 walk exceeded step bound (cycle?)",
		},
		{
			name:  "bstree/empty",
			build: func(img *mm.Memory) {},
			walk:  walkBST,
			want:  "bstree abandoned=0 nodes=0 members=[]",
		},
		{
			name: "skiplist/every-finding",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				img.Write(tHead+8, 0x5000) // index levels are not walked
				words(img, 0x1000, 5, dv(5), 1, 0x2000)
				words(img, 0x2000, 0, 0, 0, 0x3000)
				words(img, 0x3000, 7, 99, 1, 0x4000)
				words(img, 0x4000, 8, dv(8), 0, 0x5000)
				words(img, 0x5000, 4, dv(4), 2, 0x6000)
				words(img, 0x6000, 9, dv(9), 3, 0x7000|1) // deleted
				words(img, 0x7000, 12, dv(12), 1, 0x8004)
			},
			walk: walkSkip,
			want: "skiplist abandoned=1 nodes=3 members=[5:11 12:25]\n" +
				"0x2000 reachable node with uninitialized key\n" +
				"0x3000 value 99 fails integrity convention for key 7 (want 15)\n" +
				"0x4000 height 0\n" +
				"0x5000 bottom-level order violated: 4 after 5\n" +
				"0x8004 misaligned node pointer",
		},
		{
			name:  "skiplist/cycle",
			steps: 3,
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 5, dv(5), 1, 0x1000)
			},
			walk: walkSkip,
			want: "skiplist abandoned=1 nodes=1 members=[5:11]\n" +
				"0x1000 bottom-level order violated: 5 after 5\n" +
				"0x1000 bottom-level order violated: 5 after 5\n" +
				"0x1000 bottom-level order violated: 5 after 5\n" +
				"0x100 walk exceeded step bound (cycle?)",
		},
		{
			name: "queue/healthy",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				img.Write(tTail, 0x3000)
				words(img, 0x1000, 0, 0x2000)
				words(img, 0x2000, 7, 0x3000|1)
				words(img, 0x3000, 8, 0)
			},
			walk: walkQueue,
			want: "queue abandoned=0 nodes=3 values=[7 8]",
		},
		{
			name: "queue/tail-before-head",
			build: func(img *mm.Memory) {
				img.Write(tTail, 0x1000)
			},
			walk: walkQueue,
			want: "queue abandoned=0 nodes=0 values=[]\n" +
				"0x100 tail persisted before head",
		},
		{
			name: "queue/uninitialized-value",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				img.Write(tTail, 0x1000)
				words(img, 0x1000, 0, 0x2000)
				words(img, 0x2000, 7, 0x3000)
			},
			walk: walkQueue,
			want: "queue abandoned=1 nodes=2 values=[7]\n" +
				"0x3000 reachable node with uninitialized value",
		},
		{
			name: "queue/misaligned-next",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				words(img, 0x1000, 0, 0x2004)
			},
			walk: walkQueue,
			want: "queue abandoned=1 nodes=1 values=[]\n" +
				"0x2004 misaligned node pointer",
		},
		{
			name: "queue/misaligned-head",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1004)
			},
			walk: walkQueue,
			want: "queue abandoned=1 nodes=0 values=[]\n" +
				"0x1004 misaligned node pointer",
		},
		{
			name: "queue/tail-outside-chain",
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				img.Write(tTail, 0x9000)
				words(img, 0x1000, 0, 0x2000)
				words(img, 0x2000, 7, 0)
			},
			walk: walkQueue,
			want: "queue abandoned=0 nodes=2 values=[7]\n" +
				"0x140 tail points outside the reachable chain",
		},
		{
			name:  "queue/cycle",
			steps: 3,
			build: func(img *mm.Memory) {
				img.Write(tHead, 0x1000)
				img.Write(tTail, 0x3000)
				words(img, 0x1000, 0, 0x2000)
				words(img, 0x2000, 7, 0x3000)
				words(img, 0x3000, 8, 0x2000) // back-edge past the dummy
			},
			walk: walkQueue,
			want: "queue abandoned=1 nodes=4 values=[7 8 7 8]\n" +
				"0x100 walk exceeded step bound (cycle?)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.steps > 0 {
				tightSteps(t, tc.steps)
			}
			img := mm.NewMemory()
			tc.build(img)
			rep := tc.walk(img)
			if got := renderReport(rep); got != tc.want {
				t.Fatalf("report:\n%s\nwant:\n%s", got, tc.want)
			}
			if len(rep.Quarantined) > 0 && rep.Err() != rep.Quarantined[0] {
				t.Fatalf("Err() = %v, want the first quarantined finding", rep.Err())
			}
		})
	}
}

// TestBucketWalkAllocatesNothing pins the design property that keeps the
// crash sweeps' allocation flat: walking a populated hash-map bucket
// through the cursor allocates nothing (package kv checks its own bucket
// walk the same way).
func TestBucketWalkAllocatesNothing(t *testing.T) {
	img := mm.NewMemory()
	h := &HashMap{buckets: tHead, nbuckets: 2}
	keys := []uint64{1, 4, 5, 8, 9, 12} // all hash to bucket 0
	img.Write(tHead, 0x1000)
	for i, k := range keys {
		next := uint64(0)
		if i+1 < len(keys) {
			next = uint64(0x1000 + 0x100*(i+1))
		}
		words(img, isa.Addr(0x1000+0x100*i), k, dv(k), next)
	}
	rep := recovery.NewSetReport(h.Name())
	allocs := testing.AllocsPerRun(100, func() {
		recoverSorted(img, rep, h.cell(0), h, 0, nil)
	})
	if !rep.Clean() || len(rep.Set.Members) != len(keys) {
		t.Fatalf("bucket walk: %v, %d members", rep, len(rep.Set.Members))
	}
	if allocs != 0 {
		t.Fatalf("bucket walk allocates %v times, want 0", allocs)
	}
}
