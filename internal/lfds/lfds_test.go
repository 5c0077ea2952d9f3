package lfds

import (
	"testing"
	"testing/quick"

	"lrp/internal/mech"
	"lrp/internal/memsys"
)

// names of all Set implementations under test.
var setNames = []string{"linkedlist", "hashmap", "bstree", "skiplist"}

// build constructs a Set (initialized) on the given system.
func build(sys *memsys.System, name string) Set {
	switch name {
	case "linkedlist":
		return NewLinkedList(sys)
	case "hashmap":
		return NewHashMap(sys, 16)
	case "bstree":
		b := NewBST(sys)
		sys.RunOne(func(c *memsys.Ctx) { b.Init(c) })
		return b
	case "skiplist":
		return NewSkipList(sys)
	default:
		panic("unknown set " + name)
	}
}

func testSys(t *testing.T, cores int) *memsys.System {
	t.Helper()
	cfg := memsys.TestConfig(cores).WithMechanism(mech.LRP)
	cfg.TrackHB = false // semantics tests don't need the tracker
	return memsys.MustNew(cfg)
}

func TestSetSequentialBasics(t *testing.T) {
	for _, name := range setNames {
		name := name
		t.Run(name, func(t *testing.T) {
			sys := testSys(t, 1)
			s := build(sys, name)
			if s.Name() != name {
				t.Fatalf("Name = %q", s.Name())
			}
			sys.RunOne(func(c *memsys.Ctx) {
				if s.Contains(c, 5) {
					t.Error("empty set contains 5")
				}
				if !s.Insert(c, 5, 50) {
					t.Error("insert 5 failed")
				}
				if s.Insert(c, 5, 51) {
					t.Error("duplicate insert succeeded")
				}
				if !s.Contains(c, 5) {
					t.Error("5 missing after insert")
				}
				if s.Contains(c, 4) || s.Contains(c, 6) {
					t.Error("phantom keys")
				}
				if !s.Insert(c, 3, 30) || !s.Insert(c, 7, 70) {
					t.Error("inserts failed")
				}
				if !s.Delete(c, 5) {
					t.Error("delete 5 failed")
				}
				if s.Delete(c, 5) {
					t.Error("double delete succeeded")
				}
				if s.Contains(c, 5) {
					t.Error("5 present after delete")
				}
				if !s.Contains(c, 3) || !s.Contains(c, 7) {
					t.Error("neighbors lost")
				}
				if !s.Insert(c, 5, 55) {
					t.Error("re-insert failed")
				}
				if !s.Contains(c, 5) {
					t.Error("5 missing after re-insert")
				}
			})
		})
	}
}

func TestSetAscendingDescending(t *testing.T) {
	for _, name := range setNames {
		name := name
		t.Run(name, func(t *testing.T) {
			sys := testSys(t, 1)
			s := build(sys, name)
			const n = 40
			sys.RunOne(func(c *memsys.Ctx) {
				for k := uint64(1); k <= n; k++ {
					if !s.Insert(c, k, k*2+1) {
						t.Errorf("insert %d", k)
					}
				}
				for k := uint64(n); k >= 1; k-- {
					if !s.Contains(c, k) {
						t.Errorf("missing %d", k)
					}
				}
				// Delete evens.
				for k := uint64(2); k <= n; k += 2 {
					if !s.Delete(c, k) {
						t.Errorf("delete %d", k)
					}
				}
				for k := uint64(1); k <= n; k++ {
					want := k%2 == 1
					if s.Contains(c, k) != want {
						t.Errorf("contains(%d) != %v", k, want)
					}
				}
			})
		})
	}
}

// Model-based property test: a random single-threaded op sequence against
// a map model.
func TestSetMatchesModelProperty(t *testing.T) {
	for _, name := range setNames {
		name := name
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint16) bool {
				sys := testSys(t, 1)
				s := build(sys, name)
				modelSet := map[uint64]bool{}
				ok := true
				sys.RunOne(func(c *memsys.Ctx) {
					for _, o := range ops {
						key := uint64(o%31) + 1
						switch (o / 31) % 3 {
						case 0:
							want := !modelSet[key]
							if s.Insert(c, key, key*2+1) != want {
								ok = false
							}
							modelSet[key] = true
						case 1:
							want := modelSet[key]
							if s.Delete(c, key) != want {
								ok = false
							}
							delete(modelSet, key)
						case 2:
							if s.Contains(c, key) != modelSet[key] {
								ok = false
							}
						}
					}
				})
				return ok
			}
			cfg := &quick.Config{MaxCount: 20}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Concurrent linearizability-ish check: per-key membership equals the net
// effect of *successful* operations, which is well-defined because each
// key's successful ops strictly alternate insert/delete.
func TestSetConcurrentConsistency(t *testing.T) {
	for _, name := range setNames {
		name := name
		t.Run(name, func(t *testing.T) {
			const workers = 4
			const opsPer = 120
			const keyRange = 24 // high contention
			sys := testSys(t, workers)
			s := build(sys, name)
			inserts := make([]map[uint64]int, workers)
			deletes := make([]map[uint64]int, workers)
			progs := make([]memsys.Program, workers)
			for i := 0; i < workers; i++ {
				i := i
				inserts[i] = map[uint64]int{}
				deletes[i] = map[uint64]int{}
				progs[i] = func(c *memsys.Ctx) {
					r := c.Rand()
					for n := 0; n < opsPer; n++ {
						key := uint64(r.Intn(keyRange)) + 1
						if r.Bool() {
							if s.Insert(c, key, key*2+1) {
								inserts[i][key]++
							}
						} else {
							if s.Delete(c, key) {
								deletes[i][key]++
							}
						}
					}
				}
			}
			sys.Run(progs)
			for key := uint64(1); key <= keyRange; key++ {
				ins, del := 0, 0
				for i := 0; i < workers; i++ {
					ins += inserts[i][key]
					del += deletes[i][key]
				}
				if ins != del && ins != del+1 {
					t.Fatalf("key %d: %d successful inserts vs %d deletes — not alternating", key, ins, del)
				}
				want := ins == del+1
				var got bool
				sys.RunOne(func(c *memsys.Ctx) { got = s.Contains(c, key) })
				if got != want {
					t.Fatalf("key %d: contains=%v want %v (ins=%d del=%d)", key, got, want, ins, del)
				}
			}
		})
	}
}

func TestSetDisjointConcurrent(t *testing.T) {
	for _, name := range setNames {
		name := name
		t.Run(name, func(t *testing.T) {
			const workers = 4
			const per = 50
			sys := testSys(t, workers)
			s := build(sys, name)
			progs := make([]memsys.Program, workers)
			for i := 0; i < workers; i++ {
				i := i
				progs[i] = func(c *memsys.Ctx) {
					base := uint64(i*per) + 1
					for k := base; k < base+per; k++ {
						if !s.Insert(c, k, k*2+1) {
							t.Errorf("insert %d failed", k)
						}
					}
					for k := base; k < base+per; k += 2 {
						if !s.Delete(c, k) {
							t.Errorf("delete %d failed", k)
						}
					}
				}
			}
			sys.Run(progs)
			sys.RunOne(func(c *memsys.Ctx) {
				for k := uint64(1); k <= workers*per; k++ {
					want := (k-1)%2 == 1
					if s.Contains(c, k) != want {
						t.Errorf("contains(%d) != %v", k, want)
					}
				}
			})
		})
	}
}

func TestHashMapDistribution(t *testing.T) {
	sys := testSys(t, 1)
	h := NewHashMap(sys, 16)
	_, n := h.Buckets()
	if n != 16 {
		t.Fatalf("bucket count %d", n)
	}
	// Rounding up.
	h2 := NewHashMap(sys, 9)
	if _, n := h2.Buckets(); n != 16 {
		t.Fatalf("rounded bucket count %d", n)
	}
	counts := make([]int, 16)
	for k := uint64(1); k <= 1600; k++ {
		counts[h.BucketOf(k)]++
	}
	for i, c := range counts {
		if c < 50 || c > 150 {
			t.Fatalf("bucket %d badly skewed: %d", i, c)
		}
	}
}

func TestQueueSequentialFIFO(t *testing.T) {
	sys := testSys(t, 1)
	q := NewQueue(sys)
	sys.RunOne(func(c *memsys.Ctx) {
		q.Init(c)
		if _, ok := q.Dequeue(c); ok {
			t.Error("dequeue from empty succeeded")
		}
		for v := uint64(1); v <= 20; v++ {
			q.Enqueue(c, v)
		}
		for v := uint64(1); v <= 20; v++ {
			got, ok := q.Dequeue(c)
			if !ok || got != v {
				t.Errorf("dequeue: got %d,%v want %d", got, ok, v)
			}
		}
		if _, ok := q.Dequeue(c); ok {
			t.Error("queue should be empty again")
		}
		// Interleaved.
		q.Enqueue(c, 100)
		q.Enqueue(c, 101)
		if v, _ := q.Dequeue(c); v != 100 {
			t.Errorf("interleaved: %d", v)
		}
		q.Enqueue(c, 102)
		if v, _ := q.Dequeue(c); v != 101 {
			t.Errorf("interleaved: %d", v)
		}
	})
}

func TestQueueConcurrent(t *testing.T) {
	const producers = 2
	const consumers = 2
	const per = 80
	sys := testSys(t, producers+consumers)
	q := NewQueue(sys)
	sys.RunOne(func(c *memsys.Ctx) { q.Init(c) })
	var consumed [consumers][]uint64
	progs := make([]memsys.Program, producers+consumers)
	for p := 0; p < producers; p++ {
		p := p
		progs[p] = func(c *memsys.Ctx) {
			for n := 0; n < per; n++ {
				// Encode producer and sequence so FIFO-per-producer is
				// checkable.
				q.Enqueue(c, uint64(p)<<32|uint64(n+1))
			}
		}
	}
	for ci := 0; ci < consumers; ci++ {
		ci := ci
		progs[producers+ci] = func(c *memsys.Ctx) {
			for len(consumed[ci]) < per {
				v, ok := q.Dequeue(c)
				if !ok {
					c.Work(50)
					continue
				}
				consumed[ci] = append(consumed[ci], v)
			}
		}
	}
	sys.Run(progs)
	// Every enqueued value dequeued exactly once.
	seen := map[uint64]bool{}
	lastSeq := map[uint64]uint64{}
	for ci := range consumed {
		perProducerLast := map[uint64]uint64{}
		for _, v := range consumed[ci] {
			if seen[v] {
				t.Fatalf("value %x dequeued twice", v)
			}
			seen[v] = true
			p, n := v>>32, v&0xffffffff
			// FIFO per producer per consumer: a consumer sees one
			// producer's values in increasing order.
			if n <= perProducerLast[p] {
				t.Fatalf("consumer %d saw producer %d out of order", ci, p)
			}
			perProducerLast[p] = n
			if n > lastSeq[p] {
				lastSeq[p] = n
			}
		}
	}
	if len(seen) != producers*per {
		t.Fatalf("dequeued %d values, want %d", len(seen), producers*per)
	}
}

func TestBSTSentinelInvariant(t *testing.T) {
	sys := testSys(t, 1)
	b := NewBST(sys)
	sys.RunOne(func(c *memsys.Ctx) {
		b.Init(c)
		// The sentinel is never a member and cannot be deleted.
		if b.Contains(c, BSTSentinel) {
			// Contains on the sentinel key would find the sentinel leaf;
			// real keys must be below it, so just document the boundary:
			// the workloads never use keys >= BSTSentinel.
			t.Log("sentinel visible to Contains at its own key (by design)")
		}
		if b.Delete(c, 123) {
			t.Error("delete on empty tree succeeded")
		}
		if !b.Insert(c, 123, 247) || !b.Contains(c, 123) {
			t.Error("insert/contains 123")
		}
		if !b.Delete(c, 123) || b.Contains(c, 123) {
			t.Error("delete 123")
		}
	})
}

func TestSkipListHeights(t *testing.T) {
	sys := testSys(t, 1)
	heights := map[int]int{}
	sys.RunOne(func(c *memsys.Ctx) {
		for i := 0; i < 2000; i++ {
			h := randomHeight(c)
			if h < 1 || h > MaxHeight {
				t.Fatalf("height %d out of range", h)
			}
			heights[h]++
		}
	})
	if heights[1] < 700 || heights[1] > 1300 {
		t.Fatalf("height-1 frequency off: %d", heights[1])
	}
	if heights[2] < 300 || heights[2] > 700 {
		t.Fatalf("height-2 frequency off: %d", heights[2])
	}
}

func TestMarkHelpers(t *testing.T) {
	p := uint64(0x1000)
	if isMarked(p) {
		t.Fatal("clean pointer marked")
	}
	m := withMark(p)
	if !isMarked(m) || clearPtr(m) != p {
		t.Fatal("mark round trip")
	}
	if addr(m) != 0x1000 {
		t.Fatal("addr with mark")
	}
}
