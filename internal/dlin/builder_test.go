package dlin

import (
	"reflect"
	"testing"

	"lrp/internal/model"
)

// TestBuilder drives the Builder through event sequences, one per row:
// the history it assembles, or the protocol error it reports (the same
// messages the trace reader surfaces for a malformed op-history stream).
func TestBuilder(t *testing.T) {
	lin := model.Stamp{Tid: 1, Seq: 4}
	type event func(b *Builder)
	begin := func(tid int, k Kind, key, val uint64) event {
		return func(b *Builder) { b.RecordOpBegin(tid, uint8(k), key, val) }
	}
	linearize := func(tid int, s model.Stamp, seq uint64) event {
		return func(b *Builder) { b.RecordOpLin(tid, s, seq) }
	}
	end := func(tid int, ok bool, ret uint64) event {
		return func(b *Builder) { b.RecordOpEnd(tid, ok, ret) }
	}
	cases := []struct {
		name    string
		events  []event
		want    []Op
		wantErr string
	}{
		{
			name: "interleaved ops complete in end order",
			events: []event{
				begin(0, OpInsert, 5, 50), begin(1, OpDelete, 7, 0),
				linearize(1, lin, 9), end(1, true, 0),
				linearize(0, model.Stamp{Tid: 0, Seq: 1}, 3),
				linearize(0, model.Stamp{Tid: 0, Seq: 2}, 11), end(0, true, 0),
			},
			want: []Op{
				{Tid: 1, Kind: OpDelete, Key: 7, OK: true, Lin: lin, LinSeq: 9},
				{Tid: 0, Kind: OpInsert, Key: 5, Val: 50, OK: true, Lin: model.Stamp{Tid: 0, Seq: 2}, LinSeq: 11},
			},
		},
		{
			name:   "CAS remaps the expected and the new value",
			events: []event{begin(1, OpCAS, 3, 40), linearize(1, lin, 2), end(1, true, 41)},
			want:   []Op{{Tid: 1, Kind: OpCAS, Key: 3, Exp: 40, Val: 41, OK: true, Ret: 41, Lin: lin, LinSeq: 2}},
		},
		{
			name:   "read returns its value without linearizing",
			events: []event{begin(0, OpGet, 3, 0), end(0, true, 41)},
			want:   []Op{{Tid: 0, Kind: OpGet, Key: 3, OK: true, Ret: 41}},
		},
		{
			name:    "begin inside an open op",
			events:  []event{begin(1, OpInsert, 1, 1), begin(1, OpDelete, 2, 0)},
			wantErr: "thread 1 begins an operation inside an open one",
		},
		{
			name:    "lin with none open",
			events:  []event{begin(0, OpInsert, 1, 1), end(0, true, 0), linearize(0, lin, 1)},
			wantErr: "thread 0 linearizes with no open operation",
		},
		{
			name:    "end without a begin",
			events:  []event{begin(0, OpInsert, 1, 1), end(1, true, 0)},
			wantErr: "thread 1 ends an operation it never began",
		},
		{
			name:    "unfinished at end of stream",
			events:  []event{begin(0, OpInsert, 1, 1), end(0, true, 0), begin(1, OpEnqueue, 0, 9)},
			wantErr: "thread 1 has an unfinished op-history operation at end of stream",
		},
		{
			name:    "first error sticks",
			events:  []event{end(0, true, 0), begin(1, OpInsert, 1, 1), begin(1, OpInsert, 1, 1)},
			wantErr: "thread 0 ends an operation it never began",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("hashmap", 2)
			for _, e := range tc.events {
				e(b)
			}
			h, err := b.Finish()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("Finish error %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if b.Err() != nil {
				t.Fatalf("Err = %v on a well-formed stream", b.Err())
			}
			if h.Structure != "hashmap" || !reflect.DeepEqual(h.Ops, tc.want) {
				t.Fatalf("history %q %+v\nwant %q %+v", h.Structure, h.Ops, "hashmap", tc.want)
			}
		})
	}
}
