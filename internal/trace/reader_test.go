package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"lrp/internal/dlin"
	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/model"
	"lrp/internal/workload"
)

// decodeAll reads a trace to its end record and returns the first error,
// nil for a trace that decodes cleanly.
func decodeAll(b []byte) error {
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		return err
	}
	for {
		if _, err := r.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// splitTrace cuts a trace into its framing and header bytes and the
// gzip member that follows them.
func splitTrace(t testing.TB, raw []byte) (head, member []byte) {
	t.Helper()
	n := len(magic) + 1 + 4
	if len(raw) < n {
		t.Fatalf("trace of %d bytes has no header", len(raw))
	}
	n += int(binary.LittleEndian.Uint32(raw[len(magic)+1:])) + 4
	return raw[:n:n], raw[n:]
}

// gunzip decompresses one gzip member.
func gunzip(t testing.TB, member []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(member))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// gzipped compresses body into one gzip member.
func gzipped(t testing.TB, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// maxResult is the largest result footer a trace can carry: two
// maxResultLen-entry counter vectors of ten-byte values.
func maxResult() *EmbeddedResult {
	const top = ^uint64(0)
	res := &EmbeddedResult{ExecTime: 1<<63 - 1, Ops: top, Sys: make([]uint64, maxResultLen), NVM: make([]uint64, maxResultLen)}
	for i := range res.Sys {
		res.Sys[i], res.NVM[i] = top-uint64(i), 1<<63+uint64(i)
	}
	return res
}

// TestDecodeRejectsTrailingData: the end record must be the last thing
// in the file. Bytes after it, inside the gzip body or in a further gzip
// member (an empty one too), a byte after the member, and a damaged gzip
// trailer are all rejected.
func TestDecodeRejectsTrailingData(t *testing.T) {
	raw, _, _ := record(t, mech.LRP, "hashmap")
	if err := decodeAll(raw); err != nil {
		t.Fatalf("pristine trace rejected: %v", err)
	}
	head, member := splitTrace(t, raw)
	body := gunzip(t, member)

	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"byte-after-end-record", append(bytes.Clone(head), gzipped(t, append(bytes.Clone(body), 0))...),
			"data after end record"},
		{"second-gzip-member", append(bytes.Clone(raw), gzipped(t, []byte{recSync})...),
			"data after end record"},
		{"empty-second-gzip-member", append(bytes.Clone(raw), gzipped(t, nil)...),
			"data after end record"},
		{"byte-after-gzip-member", append(bytes.Clone(raw), 0),
			"data after end record"},
		{"damaged-gzip-crc", func() []byte {
			b := bytes.Clone(raw)
			b[len(b)-8] ^= 0x01 // the trailer is CRC32 then ISIZE
			return b
		}(), gzip.ErrChecksum.Error()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := decodeAll(c.b)
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming %q", err, c.want)
			}
		})
	}
	if err := decodeAll(cases[4].b); !errors.Is(err, gzip.ErrChecksum) {
		t.Errorf("damaged gzip CRC: err = %v, want gzip.ErrChecksum wrapped", err)
	}
}

// TestReaderChecksumSoFar: mid-stream, Checksum is the stream checksum
// of exactly the op-stream records Next has returned. Each record is
// written again to a fresh Writer, whose running checksum must match the
// reader's after every Next. The kv trace carries op-history records,
// which sit between op-stream records but outside the checksum, and is
// long enough to cross several decode windows.
func TestReaderChecksumSoFar(t *testing.T) {
	cfg := testConfig(mech.NOP)
	spec := workload.Spec{Structure: "kv", Threads: 4, InitialSize: 512, OpsPerThread: 100, Seed: 7}
	var buf bytes.Buffer
	_, _, _, _, sum, err := RecordHistory(cfg, spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(io.Discard, r.Header())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Checksum(); got != 0 {
		t.Fatalf("checksum before the first record = %08x, want 0", got)
	}
	for n := 1; ; n++ {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		switch rec.Type {
		case RecOp:
			w.RecordOp(rec.TID, rec.Work, rec.Op, rec.Val, rec.OK)
		case RecTick:
			w.RecordTick(rec.TID, rec.Work)
		case RecSync:
			w.RecordSync()
		case RecDrain:
			w.RecordDrain()
		case RecMark:
			w.RecordMark(rec.Mark)
		default:
			t.Fatalf("record %d: Next returned a %v record", n, rec.Type)
		}
		ws := w.Summary()
		if got := r.Checksum(); got != ws.Checksum || r.Records() != ws.Records || r.Ops() != ws.Ops {
			t.Fatalf("after record %d (%v): reader checksum %08x, %d records, %d ops; writer %08x, %d records, %d ops",
				n, rec.Type, got, r.Records(), r.Ops(), ws.Checksum, ws.Records, ws.Ops)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ws := w.Summary(); r.Checksum() != sum.Checksum || ws.Checksum != sum.Checksum {
		t.Fatalf("final checksum: reader %08x, rewritten %08x, recorded %08x", r.Checksum(), ws.Checksum, sum.Checksum)
	}
	if sum.RawBytes < 3*64<<10 {
		t.Fatalf("trace body is %d bytes; the test wants one several decode windows long", sum.RawBytes)
	}
	if r.History() == nil {
		t.Fatal("trace carries no op history")
	}
}

// TestReaderWindowBoundaries decodes a Writer stream several decode
// windows long whose records take their longest encodings: values of
// 2^63 and more, work gaps of maxWork-1, the highest thread id, address
// deltas of both signs and the largest, and op-history records between
// them. It ends in a result footer whose two vectors each hold
// maxResultLen ten-byte values, placed so that its first bytes are in the
// window and the rest arrive with the refill at its start. Every record
// and the footer must decode to what was written, and truncating the
// record stream on either side of a refill must fail cleanly.
func TestReaderWindowBoundaries(t *testing.T) {
	const top = ^uint64(0)
	h := HeaderFor(testConfig(mech.LRP), testSpec("hashmap"))
	tidMax := h.Config.Cores - 1
	res := maxResult()

	// The filler's op-stream records, in order, as Next returns them.
	var want []Rec
	var hist []dlin.Op
	filler := func(w *Writer) {
		words := [2]isa.Addr{0, (1<<44 - 1) << 3} // the first and last legal words
		for i := 0; len(want) < 10000; i++ {
			v := 1<<63 + uint64(i)
			cas := isa.Op{Kind: isa.CAS, Order: isa.Ordering(i % 4), Addr: words[i%2], Expected: v, Value: top - v}
			w.RecordOp(tidMax, maxWork-1, cas, top-uint64(i), i%2 == 0)
			want = append(want, Rec{Type: RecOp, TID: tidMax, Work: maxWork - 1, Op: cas, Val: top - uint64(i), OK: i%2 == 0})
			load := isa.Op{Kind: isa.Load, Order: isa.Acquire, Addr: words[(i+1)%2]}
			w.RecordOp(0, maxWork-1, load, v, true)
			want = append(want, Rec{Type: RecOp, TID: 0, Work: maxWork - 1, Op: load, Val: v, OK: true})
			w.RecordTick(tidMax, maxWork-1)
			want = append(want, Rec{Type: RecTick, TID: tidMax, Work: maxWork - 1})
			w.RecordSync()
			w.RecordDrain()
			w.RecordMark(uint8(i))
			want = append(want, Rec{Type: RecSync}, Rec{Type: RecDrain}, Rec{Type: RecMark, Mark: uint8(i)})
			// One abstract operation on the second-highest thread,
			// linearized at its store.
			kind := dlin.OpInsert + dlin.Kind(i%int(dlin.OpScan))
			w.RecordOpBegin(tidMax-1, uint8(kind), v, top)
			store := isa.Op{Kind: isa.Store, Order: isa.Release, Addr: words[i%2], Value: v}
			w.RecordOp(tidMax-1, 0, store, 0, true)
			want = append(want, Rec{Type: RecOp, TID: tidMax - 1, Op: store, OK: true})
			w.RecordOpLin(tidMax-1, model.Stamp{}, 0)
			w.RecordOpEnd(tidMax-1, i%3 == 0, top-v)
			hist = append(hist, dlin.Op{Tid: tidMax - 1, Kind: kind, Key: v, OK: i%3 == 0, Ret: top - v})
		}
	}
	// build writes the filler, 1+n syncs, one CAS record and the footer.
	// It returns the trace, the CAS record's stream offset and length,
	// and the number of op-stream records before it.
	build := func(n int) (raw []byte, casAt, casLen int, records uint64) {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, h)
		if err != nil {
			t.Fatal(err)
		}
		want, hist = want[:0], hist[:0]
		filler(w)
		for i := 0; i <= n; i++ {
			w.RecordSync()
			want = append(want, Rec{Type: RecSync})
		}
		casAt = int(w.Summary().RawBytes)
		records = w.Summary().Records
		cas := isa.Op{Kind: isa.CAS, Order: isa.AcqRel, Addr: 8, Expected: top, Value: top}
		w.RecordOp(0, maxWork-1, cas, top, true)
		want = append(want, Rec{Type: RecOp, TID: 0, Work: maxWork - 1, Op: cas, Val: top, OK: true})
		casLen = int(w.Summary().RawBytes) - casAt
		w.SetResult(res)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), casAt, casLen, records
	}
	// undecoded returns how many undecoded bytes the window holds, or
	// would hold if the stream went on, when the CAS record starts
	// (before any refill there), and whether the stream has ended.
	undecoded := func(raw []byte, records uint64) (int, bool) {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for r.Records() < records {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		return windowSize - r.pos, r.zerr != nil
	}

	// Place the CAS so that no refill happens at its start but the
	// footer after it starts with fewer than footerLen bytes left.
	raw, casAt, casLen, records := build(0)
	footerLen := 1 + 9 + binary.MaxVarintLen64 + 2*(2+maxResultLen*binary.MaxVarintLen64)
	lo, hi := maxRecord, casLen+footerLen // straddles when lo <= undecoded < hi
	if lo >= hi {
		t.Fatalf("a %d-byte CAS before a %d-byte footer cannot straddle a refill", casLen, footerLen)
	}
	n := 0
	left, ended := undecoded(raw, records)
	for try := 0; left < lo || left >= hi; try++ {
		if try == 3 {
			t.Fatalf("could not place the footer across a refill (%d bytes left at the CAS)", left)
		}
		if left >= hi {
			n += left - (lo+hi)/2 // each sync takes one byte
		} else {
			n += windowSize - (lo+hi)/2 // the first sync refills the window
		}
		raw, casAt, _, records = build(n)
		left, ended = undecoded(raw, records)
	}
	if ended {
		t.Fatalf("the window holds the whole stream from the CAS on")
	}
	footerAt := casAt + casLen
	t.Logf("footer at stream offset %d: %d of its %d bytes in the window before the refill", footerAt, left-casLen, footerLen)
	hd, member := splitTrace(t, raw)
	body := gunzip(t, member)
	if got := len(body) - footerAt; got < footerLen {
		t.Fatalf("footer and end record at %d are %d bytes long, want at least %d", footerAt, got, footerLen)
	}

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rec, err := r.Next()
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("stream ended after %d records, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if i >= len(want) || rec != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[min(i, len(want)-1)])
		}
	}
	if !reflect.DeepEqual(r.Embedded(), res) {
		t.Fatalf("embedded result does not round-trip")
	}
	got := r.History()
	if got == nil || len(got.Ops) != len(hist) {
		t.Fatalf("history has %v ops, want %d", got, len(hist))
	}
	for i, o := range got.Ops {
		w := hist[i]
		if o.Tid != w.Tid || o.Kind != w.Kind || o.Key != w.Key || o.OK != w.OK || o.Ret != w.Ret {
			t.Fatalf("history op %d = %+v, want %+v", i, o, w)
		}
	}

	// Cut the record stream on both sides of where the first window
	// starts refilling and where it ends, of the window's end at the
	// footer's refill, and of the footer's start.
	firstRefill := windowSize - maxRecord
	lastEnd := casAt + left
	for _, cut := range []int{
		firstRefill - 1, firstRefill, firstRefill + 1, windowSize - 1, windowSize, windowSize + 1,
		lastEnd - 1, lastEnd, lastEnd + 1, footerAt - 1, footerAt, footerAt + 1, len(body) - 1,
	} {
		if err := decodeAll(append(bytes.Clone(hd), gzipped(t, body[:cut])...)); err == nil {
			t.Errorf("record stream cut at %d of %d accepted", cut, len(body))
		}
	}
	for _, cut := range []int{len(member) / 3, len(member) / 2, len(member) - 9, len(member) - 1} {
		if err := decodeAll(append(bytes.Clone(hd), member[:cut]...)); err == nil {
			t.Errorf("gzip member cut at %d of %d accepted", cut, len(member))
		}
	}

	// One value more than a vector may hold is rejected.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	w.SetResult(&EmbeddedResult{Sys: make([]uint64, maxResultLen+1)})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := decodeAll(buf.Bytes()); err == nil || !strings.Contains(err.Error(), "result vector length 1025 out of range") {
		t.Fatalf("1025-entry result vector: err = %v, want a length rejection", err)
	}
}
