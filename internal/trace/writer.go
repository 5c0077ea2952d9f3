package trace

import (
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
	"lrp/internal/obs"
)

// countWriter counts the bytes passed through to its destination.
type countWriter struct {
	w io.Writer
	n uint64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// Summary reports what a Writer captured.
type Summary struct {
	// Ops is the number of memory operations recorded.
	Ops uint64
	// Records is the number of op-stream records (ops, ticks, syncs,
	// drains, marks) — the records the checksum covers.
	Records uint64
	// RawBytes is the uncompressed size of the record stream.
	RawBytes uint64
	// WireBytes is the total compressed file size, framing included.
	WireBytes uint64
	// Checksum is the CRC32 over the uncompressed op-stream records:
	// the mechanism-invariant identity of the trace's op stream.
	Checksum uint32
}

// Writer streams a machine's memory-op stream into the trace format. It
// implements memsys.Recorder; attach it through memsys.Config.Rec (or
// use Record, which wires everything). Writes are buffered through gzip;
// nothing is durable until Close.
//
// Errors on the underlying writer are sticky: recording continues as a
// no-op and Close reports the first failure.
type Writer struct {
	cw     countWriter
	zw     *gzip.Writer
	buf    []byte  // scratch: one record's encoding
	last   []int64 // per-thread previous word address, for delta coding
	crc    uint32
	ops    uint64
	recs   uint64
	raw    uint64
	result *EmbeddedResult
	o      *obs.Observer
	err    error
	closed bool
}

// NewWriter writes the file framing and header for h to w and returns a
// streaming Writer for the record body.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if err := h.Config.Validate(); err != nil {
		return nil, err
	}
	if err := h.Spec.Validate(); err != nil {
		return nil, err
	}
	tw := &Writer{cw: countWriter{w: w}, last: make([]int64, h.Config.Cores)}
	payload := appendHeader(nil, h)
	if len(payload) > maxHeader {
		return nil, fmt.Errorf("trace: header payload %d bytes exceeds %d", len(payload), maxHeader)
	}
	frame := append([]byte(magic), Version)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crcTab))
	if _, err := tw.cw.Write(frame); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	tw.zw = gzip.NewWriter(&tw.cw)
	return tw, nil
}

// SetObserver routes trace I/O counters (ops recorded, bytes, compression
// ratio) to o's registry at Close. Nil is fine.
func (w *Writer) SetObserver(o *obs.Observer) { w.o = o }

// SetResult embeds the live run's measured window in the trace footer,
// so a replay can verify it reproduced the recording byte-for-byte.
func (w *Writer) SetResult(r *EmbeddedResult) { w.result = r }

// flush writes the scratch buffer as one op-stream record: it enters the
// stream checksum and the record count.
func (w *Writer) flush() {
	if w.err != nil {
		w.buf = w.buf[:0]
		return
	}
	w.crc = crc32.Update(w.crc, crcTab, w.buf)
	w.recs++
	w.raw += uint64(len(w.buf))
	if _, err := w.zw.Write(w.buf); err != nil {
		w.err = fmt.Errorf("trace: writing record: %w", err)
	}
	w.buf = w.buf[:0]
}

// flushFooter writes the scratch buffer as a footer record (result/end):
// counted in raw size but excluded from the op-stream checksum, so the
// checksum is invariant across re-records under different mechanisms.
func (w *Writer) flushFooter() {
	if w.err != nil {
		w.buf = w.buf[:0]
		return
	}
	w.raw += uint64(len(w.buf))
	if _, err := w.zw.Write(w.buf); err != nil {
		w.err = fmt.Errorf("trace: writing record: %w", err)
	}
	w.buf = w.buf[:0]
}

// RecordOp implements memsys.Recorder.
func (w *Writer) RecordOp(tid int, work engine.Time, op isa.Op, val uint64, ok bool) {
	w.buf = append(w.buf, byte(op.Kind)|byte(op.Order)<<2)
	w.buf = binary.AppendUvarint(w.buf, uint64(tid))
	w.buf = binary.AppendUvarint(w.buf, uint64(work))
	word := int64(op.Addr >> 3)
	w.buf = binary.AppendUvarint(w.buf, zigzag(word-w.last[tid]))
	w.last[tid] = word
	switch op.Kind {
	case isa.Load:
		w.buf = binary.AppendUvarint(w.buf, val)
	case isa.Store:
		w.buf = binary.AppendUvarint(w.buf, op.Value)
	case isa.CAS:
		w.buf = binary.AppendUvarint(w.buf, op.Expected)
		w.buf = binary.AppendUvarint(w.buf, op.Value)
		w.buf = binary.AppendUvarint(w.buf, val)
		b := byte(0)
		if ok {
			b = 1
		}
		w.buf = append(w.buf, b)
	}
	w.ops++
	w.flush()
}

// RecordTick implements memsys.Recorder.
func (w *Writer) RecordTick(tid int, work engine.Time) {
	w.buf = append(w.buf, recTick)
	w.buf = binary.AppendUvarint(w.buf, uint64(tid))
	w.buf = binary.AppendUvarint(w.buf, uint64(work))
	w.flush()
}

// RecordSync implements memsys.Recorder.
func (w *Writer) RecordSync() {
	w.buf = append(w.buf, recSync)
	w.flush()
}

// RecordDrain implements memsys.Recorder.
func (w *Writer) RecordDrain() {
	w.buf = append(w.buf, recDrain)
	w.flush()
}

// RecordMark implements memsys.Recorder.
func (w *Writer) RecordMark(id uint8) {
	w.buf = append(w.buf, recMark, id)
	w.flush()
}

// RecordOpBegin implements memsys.OpRecorder: an abstract data-structure
// operation opens on thread tid. Op-history records are footer-class —
// excluded from the stream checksum and record count — so recording with
// history capture does not change the trace's op-stream identity.
func (w *Writer) RecordOpBegin(tid int, kind uint8, key, val uint64) {
	w.buf = append(w.buf, recOpBegin)
	w.buf = binary.AppendUvarint(w.buf, uint64(tid))
	w.buf = append(w.buf, kind)
	w.buf = binary.AppendUvarint(w.buf, key)
	w.buf = binary.AppendUvarint(w.buf, val)
	w.flushFooter()
}

// RecordOpLin implements memsys.OpRecorder: the operation open on tid
// linearized at the thread's most recent write. The stamp and sequence
// number are not stored; the record's stream position (immediately after
// the linearizing op record) lets the reader rebuild both.
func (w *Writer) RecordOpLin(tid int, _ model.Stamp, _ uint64) {
	w.buf = append(w.buf, recOpLin)
	w.buf = binary.AppendUvarint(w.buf, uint64(tid))
	w.flushFooter()
}

// RecordOpEnd implements memsys.OpRecorder: the operation open on tid
// returned (ok, ret).
func (w *Writer) RecordOpEnd(tid int, ok bool, ret uint64) {
	w.buf = append(w.buf, recOpEnd)
	w.buf = binary.AppendUvarint(w.buf, uint64(tid))
	b := byte(0)
	if ok {
		b = 1
	}
	w.buf = append(w.buf, b)
	w.buf = binary.AppendUvarint(w.buf, ret)
	w.flushFooter()
}

// Close writes the embedded result (if set) and the end record, then
// flushes the compressed stream. It reports the first error from any
// point of the recording. The underlying writer is not closed.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if r := w.result; r != nil {
		w.buf = append(w.buf, recResult)
		w.buf = binary.AppendUvarint(w.buf, uint64(r.ExecTime))
		w.buf = binary.AppendUvarint(w.buf, r.Ops)
		for _, vec := range [][]uint64{r.Sys, r.NVM} {
			w.buf = binary.AppendUvarint(w.buf, uint64(len(vec)))
			for _, v := range vec {
				w.buf = binary.AppendUvarint(w.buf, v)
			}
		}
		w.flushFooter()
	}
	w.buf = append(w.buf, recEnd)
	w.buf = binary.AppendUvarint(w.buf, w.recs)
	w.buf = binary.AppendUvarint(w.buf, w.ops)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, w.crc)
	w.flushFooter()
	if err := w.zw.Close(); err != nil && w.err == nil {
		w.err = fmt.Errorf("trace: closing stream: %w", err)
	}
	if w.o != nil && w.err == nil {
		w.o.TraceRecorded(w.ops, w.raw, w.cw.n)
	}
	return w.err
}

// Summary reports what was captured. Valid after Close.
func (w *Writer) Summary() Summary {
	return Summary{Ops: w.ops, Records: w.recs, RawBytes: w.raw, WireBytes: w.cw.n, Checksum: w.crc}
}
