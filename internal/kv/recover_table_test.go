package kv

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lrp/internal/isa"
	"lrp/internal/lfds"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/recovery"
)

// tightSteps lowers the chain walks' step bound for one test, so cycle
// cases reach the bound without walking millions of steps.
func tightSteps(t *testing.T, n int) {
	t.Helper()
	old := lfds.WalkStepBound
	lfds.WalkStepBound = n
	t.Cleanup(func() { lfds.WalkStepBound = old })
}

// renderKV is a kv report's full observable content: Abandoned, Nodes,
// the sorted members, then one line per quarantined node and reason.
func renderKV(rep *recovery.Report) string {
	var b strings.Builder
	keys := make([]uint64, 0, len(rep.Set.Members))
	for k := range rep.Set.Members { // maprange:ok — sorted below
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fmt.Fprintf(&b, "%s abandoned=%d nodes=%d members=[", rep.Structure, rep.Abandoned, rep.Set.Nodes)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", k, rep.Set.Members[k])
	}
	b.WriteByte(']')
	for _, c := range rep.Quarantined {
		fmt.Fprintf(&b, "\n%v %s", c.Node, c.Reason)
	}
	return b.String()
}

// writeRec writes a valid value record for (gk, id) with n payload
// words at a.
func writeRec(img *mm.Memory, a isa.Addr, gk, id uint64, n int) {
	img.Write(a+recWords, uint64(n))
	img.Write(a+recValID, id)
	img.Write(a+recSum, recChecksum(gk, id, n))
	for j := 0; j < n; j++ {
		img.Write(a+recData+isa.Addr(8*j), payloadWord(gk, id, j))
	}
}

func kvWords(img *mm.Memory, a isa.Addr, ws ...uint64) {
	for i, w := range ws {
		img.Write(a+isa.Addr(8*i), w)
	}
}

// TestRecoverReasonsTable pins the kv walker's full report on hand-made
// images that reach every finding of its bucket-chain walk and its
// ordered-index walk, including both walks' cycle and misaligned-pointer
// guards.
func TestRecoverReasonsTable(t *testing.T) {
	sys := testSys(t, 1)
	st := New(sys, testParams())
	idx := st.shards[0].idx
	base, _ := idx.Buckets()
	head := st.shards[0].ord.Head()

	// Tenant-0 keys of one bucket, ascending, and a later tenant-0 key
	// that hashes elsewhere.
	bucket := idx.BucketOf(globalKey(0, 1))
	cell := base + isa.Addr(bucket*isa.LineSize)
	var in []uint64
	var other uint64
	for k := uint64(1); len(in) < 7 || other == 0; k++ {
		gk := globalKey(0, k)
		switch {
		case idx.BucketOf(gk) == bucket:
			in = append(in, gk)
		case len(in) > 1 && other == 0:
			other = gk
		}
	}

	cases := []struct {
		name  string
		steps int
		build func(img *mm.Memory)
		want  string
	}{
		{
			name: "bucket/every-finding",
			build: func(img *mm.Memory) {
				img.Write(cell, 0x10000)
				writeRec(img, 0x20000, in[1], 101, 2)
				kvWords(img, 0x10000, in[1], 0x20000, 0x10100)
				kvWords(img, 0x10100, 0, 0, 0x10200)
				kvWords(img, 0x10200, in[2], 0, 0x10300|1)
				kvWords(img, 0x10300, globalKey(1, 5), 0, 0x10400)
				kvWords(img, 0x10400, other, 0, 0x10500)
				kvWords(img, 0x10500, in[0], 0, 0x10600)
				kvWords(img, 0x10600, in[2], Tombstone, 0x10700)
				kvWords(img, 0x10700, in[3], 0, 0x10800)
				writeRec(img, 0x20100, in[4], 104, 1)
				img.Write(0x20100+recSum, 7)
				kvWords(img, 0x10800, in[4], 0x20100, 0x10900)
				kvWords(img, 0x10900, in[5], 0x20204, 0x10a00)
				writeRec(img, 0x20300, in[6], 106, 3)
				kvWords(img, 0x10a00, in[6], 0x20300, 0x10b04)
			},
			want: fmt.Sprintf("kv abandoned=1 nodes=6 members=[%d:101 %d:106]\n", in[1], in[6]) +
				"0x10100 reachable node with uninitialized key\n" +
				"0x10200 marked link in a kv index chain\n" +
				"0x10300 key of tenant 1 found in tenant 0's index\n" +
				fmt.Sprintf("0x10400 key %d found in bucket %d, hashes to %d\n", other, bucket, idx.BucketOf(other)) +
				fmt.Sprintf("0x10500 key order violated: %d after %d\n", in[0], in[1]) +
				fmt.Sprintf("0x10700 key %d reachable with an uninitialized value cell\n", in[3]) +
				fmt.Sprintf("0x10800 key %d: torn value: record checksum mismatch (got 0x7)\n", in[4]) +
				fmt.Sprintf("0x10900 key %d: torn value: misaligned record pointer\n", in[5]) +
				"0x10b04 misaligned node pointer",
		},
		{
			name:  "bucket/cycle",
			steps: 3,
			build: func(img *mm.Memory) {
				img.Write(cell, 0x10000)
				img.Write(0x20000+recWords, 0) // torn length
				kvWords(img, 0x10000, in[0], 0x20000, 0x10000)
			},
			want: fmt.Sprintf("kv abandoned=1 nodes=1 members=[]\n0x10000 key %d: torn value: record length 0 out of range\n", in[0]) +
				fmt.Sprintf("0x10000 key order violated: %d after %d\n", in[0], in[0]) +
				fmt.Sprintf("0x10000 key order violated: %d after %d\n", in[0], in[0]) +
				fmt.Sprintf("0x10000 key order violated: %d after %d\n", in[0], in[0]) +
				fmt.Sprintf("%v walk exceeded step bound (cycle?)", cell),
		},
		{
			name: "ordered/every-finding",
			build: func(img *mm.Memory) {
				img.Write(head, 0x30000)
				g := func(k uint64) uint64 { return globalKey(0, k) }
				kvWords(img, 0x30000, g(3), recovery.DefaultVal(g(3)), 1, 0x30100)
				kvWords(img, 0x30100, 0, 0, 0, 0x30200)
				kvWords(img, 0x30200, g(4), 99, 1, 0x30300)
				kvWords(img, 0x30300, g(5), recovery.DefaultVal(g(5)), 0, 0x30400)
				kvWords(img, 0x30400, globalKey(1, 6), recovery.DefaultVal(globalKey(1, 6)), 2, 0x30500)
				kvWords(img, 0x30500, g(2), recovery.DefaultVal(g(2)), 1, 0x30600|1)
				kvWords(img, 0x30600, g(9), recovery.DefaultVal(g(9)), 1, 0x30704)
			},
			want: "kv abandoned=1 nodes=0 members=[]\n" +
				"0x30100 reachable ordered-index node with uninitialized key\n" +
				"0x30200 ordered-index value 99 fails integrity convention for key 4\n" +
				"0x30300 ordered-index node height 0\n" +
				"0x30400 ordered-index key of tenant 1 in tenant 0's index\n" +
				"0x30500 ordered-index order violated: 2 after 3\n" +
				"0x30704 misaligned ordered-index node pointer",
		},
		{
			name:  "ordered/cycle",
			steps: 2,
			build: func(img *mm.Memory) {
				img.Write(head, 0x30000)
				kvWords(img, 0x30000, globalKey(0, 3), recovery.DefaultVal(globalKey(0, 3)), 1, 0x30000)
			},
			want: "kv abandoned=1 nodes=0 members=[]\n" +
				"0x30000 ordered-index order violated: 3 after 3\n" +
				"0x30000 ordered-index order violated: 3 after 3\n" +
				fmt.Sprintf("%v ordered-index walk exceeded step bound (cycle?)", head),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.steps > 0 {
				tightSteps(t, tc.steps)
			}
			img := mm.NewMemory()
			tc.build(img)
			rep := st.Recover(img)
			if got := renderKV(rep); got != tc.want {
				t.Fatalf("report:\n%s\nwant:\n%s", got, tc.want)
			}
			if len(rep.Quarantined) > 0 && rep.Err() != rep.Quarantined[0] {
				t.Fatalf("Err() = %v, want the first quarantined finding", rep.Err())
			}
		})
	}
}

// TestBucketWalkAllocatesNothing: walking one populated bucket chain
// through the lfds cursor, per-node policy and record checks included,
// allocates nothing — the property that keeps the crash sweeps'
// allocation flat. A write to the bucket's head line makes Recover
// re-walk that bucket alone, which allocates the new report and its
// SetState and nothing per node.
func TestBucketWalkAllocatesNothing(t *testing.T) {
	sys := testSys(t, 1)
	st := New(sys, testParams())
	sys.RunOne(func(c *memsys.Ctx) {
		for k := uint64(1); k <= 64; k++ {
			st.Set(c, 0, k, 100+k, 2)
		}
	})
	sys.Drain()
	img := sys.NVM().FinalImage(nil)
	base, _ := st.shards[0].idx.Buckets()
	cell := base + isa.Addr(st.shards[0].idx.BucketOf(globalKey(0, 1))*lfds.BucketStride)
	head := img.Read(cell)
	rep := st.Recover(img)
	allocs := testing.AllocsPerRun(100, func() {
		img.Write(cell, head)
		rep = st.Recover(img)
	})
	if !rep.Clean() || len(rep.Set.Members) != 64 {
		t.Fatalf("bucket walk: %v, %d members", rep, len(rep.Set.Members))
	}
	if allocs != 2 {
		t.Fatalf("a one-bucket re-walk allocates %v times, want 2 (the report and its SetState)", allocs)
	}
}
