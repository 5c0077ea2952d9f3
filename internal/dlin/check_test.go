package dlin

import (
	"reflect"
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/recovery"
)

// TestPassReuseRecomputesAcrossThresholds walks one Pass over ascending
// instants with one unchanging recovered state (an empty set) and checks
// it against a fresh Pass at each. The verdict moves while the state
// stays put in both ways a threshold can move it:
//
//   - insert(2) is durable from t=10 but happens after insert(1), which
//     persists at t=20: reordered until then (a need threshold);
//   - both inserts are missing while the node store ordered before
//     insert(1)'s release persists only at t=40: acked-but-lost until
//     then, buffering after (a needW threshold, no pAt or need at 40).
func TestPassReuseRecomputesAcrossThresholds(t *testing.T) {
	tr := model.NewTracker(2)
	node := tr.OnWrite(0, isa.Addr(0x1000))
	lin1 := tr.OnRelease(0, isa.Addr(0x2000))
	tr.OnAcquire(1, isa.Addr(0x2000))
	lin2 := tr.OnRelease(1, isa.Addr(0x3000))
	tr.SetPersisted(lin2, 10)
	tr.SetPersisted(lin1, 20)
	tr.SetPersisted(node, 40)
	h := &History{Structure: "linkedlist", Ops: []Op{
		{Tid: 0, Kind: OpInsert, Key: 1, Val: 1, OK: true, Lin: lin1, LinSeq: 1},
		{Tid: 1, Kind: OpInsert, Key: 2, Val: 2, OK: true, Lin: lin2, LinSeq: 2},
	}}
	ck, err := NewChecker(h, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep := &recovery.Report{Structure: "linkedlist", Set: &recovery.SetState{Members: map[uint64]uint64{}}}
	classes := map[engine.Time][]Class{
		5:  nil,
		15: {Reordered, AckedLost},
		25: {AckedLost, AckedLost},
		45: nil,
	}
	p := ck.NewPass()
	for at := engine.Time(0); at <= 50; at++ {
		got, want := p.Check(at, rep), ck.NewPass().Check(at, rep)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("t=%d: reused pass %v, fresh pass %v", at, got, want)
		}
		if cs, ok := classes[at]; ok {
			var have []Class
			for _, v := range got {
				have = append(have, v.Class)
			}
			if !reflect.DeepEqual(have, cs) {
				t.Fatalf("t=%d: classes %v, want %v (%v)", at, have, cs, got)
			}
		}
	}
}

// TestCompareSetKeyOrder checks that violations on expected keys and on
// keys only the recovered state holds come out merged in key order.
// Keys 3, 5 and 7 are inserted and durable at t=50; key 5's node store
// never persists before t=100, so its loss is acked-but-lost. The
// recovered state misses 5, holds 3 with a wrong value, and holds 2, 4
// and 9, which no durable operation explains.
func TestCompareSetKeyOrder(t *testing.T) {
	tr := model.NewTracker(3)
	lin3 := tr.OnRelease(0, isa.Addr(0x1000))
	node5 := tr.OnWrite(1, isa.Addr(0x2000))
	lin5 := tr.OnRelease(1, isa.Addr(0x2040))
	lin7 := tr.OnRelease(2, isa.Addr(0x3000))
	for _, s := range []model.Stamp{lin3, lin5, lin7} {
		tr.SetPersisted(s, 10)
	}
	tr.SetPersisted(node5, 100)
	h := &History{Structure: "hashmap", Ops: []Op{
		{Tid: 0, Kind: OpInsert, Key: 3, Val: 7, OK: true, Lin: lin3, LinSeq: 1},
		{Tid: 1, Kind: OpInsert, Key: 5, Val: 11, OK: true, Lin: lin5, LinSeq: 2},
		{Tid: 2, Kind: OpInsert, Key: 7, Val: 15, OK: true, Lin: lin7, LinSeq: 3},
	}}
	ck, err := NewChecker(h, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep := &recovery.Report{Structure: "hashmap", Set: &recovery.SetState{
		Members: map[uint64]uint64{2: 5, 3: 99, 4: 9, 7: 15, 9: 19},
	}}
	var keys []uint64
	var classes []Class
	for _, v := range ck.NewPass().Check(50, rep) {
		keys, classes = append(keys, v.Key), append(classes, v.Class)
	}
	if want := []uint64{2, 3, 4, 5, 9}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("violation keys %v, want %v", keys, want)
	}
	if want := []Class{Phantom, Phantom, Phantom, AckedLost, Phantom}; !reflect.DeepEqual(classes, want) {
		t.Fatalf("violation classes %v, want %v", classes, want)
	}
	rep.Set.Members = map[uint64]uint64{3: 7, 5: 11, 7: 15}
	if vs := ck.NewPass().Check(50, rep); len(vs) != 0 {
		t.Fatalf("matching recovered state reported %v", vs)
	}
}
