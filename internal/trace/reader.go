package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"lrp/internal/dlin"
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/model"
)

// Rec is one decoded trace record. Type selects which fields are
// meaningful: TID/Work for ops and ticks, Op/Val/OK for ops, Mark for
// markers.
type Rec struct {
	Type RecType
	TID  int
	Work engine.Time
	Op   isa.Op
	Val  uint64
	OK   bool
	Mark uint8
}

// maxResultLen bounds each counter vector of a result footer. Counter
// structs have tens of fields; 1024 bounds a corrupt length without
// constraining growth.
const maxResultLen = 1024

// maxRecord is the longest encoding any record can have: a result footer
// whose two vectors hold maxResultLen values each, with every varint at
// its full ten bytes (the decoder accepts overlong varints, so corrupt
// input can reach that length).
const maxRecord = 1 + 2*binary.MaxVarintLen64 + 2*(1+maxResultLen)*binary.MaxVarintLen64

// windowSize is the size of a Reader's window of decompressed record
// bytes: at least two maximum records, so that each refill moves fewer
// than maxRecord undecoded bytes to the front and reads at least
// maxRecord new ones. 48 KiB is that rounded up to whole 8 KiB heap pages.
const windowSize = 48 << 10

// The conversion does not compile if the window holds less than two
// maximum records.
const _ = uint(windowSize - 2*maxRecord)

// errOverflow reports a varint longer than 64 bits.
var errOverflow = errors.New("trace: varint overflows a 64-bit integer")

// Reader decodes a trace stream. Every decoded field is validated
// against the header's machine shape, so a truncated or bit-flipped
// trace surfaces as an error, never a panic or a huge allocation.
//
// Records are parsed straight out of a fixed window of decompressed
// bytes. At every record boundary the window holds at least maxRecord
// undecoded bytes unless the gzip stream has ended, so a record that
// runs past the window's end is a truncated one. The stream checksum is
// folded over each run of consecutive op-stream records at once.
type Reader struct {
	h Header
	z *inflater // the file after its header: one gzip member
	// win[pos:end] is decompressed and not yet decoded; p is the cursor
	// of the record being decoded, committed to pos once it is whole.
	// win[crcFrom:pos] are op-stream records not yet folded into crc.
	win         []byte
	pos, end, p int
	crcFrom     int
	zerr        error // the gzip stream's error once it stops; io.EOF at a clean end
	last        []int64
	crc         uint32
	ops         uint64
	recs        uint64
	embedded    *EmbeddedResult
	done        bool

	// Op-history reconstruction. hist assembles the op-history records
	// into a History. wseq counts each thread's dynamic writes (stores
	// and successful CASes) so a recOpLin record can be rebuilt into the
	// same model.Stamp a TrackHB replay of this trace assigns to that
	// write.
	hist *dlin.Builder
	wseq []uint64
}

// NewReader validates the file framing and header and positions the
// reader at the first record.
func NewReader(src io.Reader) (*Reader, error) {
	z := newInflater(src)
	head := make([]byte, len(magic)+1+4)
	if err := z.readFull(head); err != nil {
		return nil, fmt.Errorf("trace: reading file header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:len(magic)])
	}
	if v := head[len(magic)]; v != Version {
		return nil, fmt.Errorf("trace: format version %d, this build reads %d", v, Version)
	}
	plen := binary.LittleEndian.Uint32(head[len(magic)+1:])
	if plen == 0 || plen > maxHeader {
		return nil, fmt.Errorf("trace: header payload length %d out of range", plen)
	}
	payload := make([]byte, plen+4)
	if err := z.readFull(payload); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(payload[plen:])
	payload = payload[:plen]
	if got := crc32.Checksum(payload, crcTab); got != wantCRC {
		return nil, fmt.Errorf("trace: header checksum %08x, want %08x", got, wantCRC)
	}
	h, err := parseHeader(payload)
	if err != nil {
		return nil, err
	}
	// The record stream is one gzip member. The inflater stops at its
	// end instead of reading on into a second one, so that decodeEnd can
	// reject whatever follows it, an empty member included.
	if err := z.gzipHeader(); err != nil {
		return nil, fmt.Errorf("trace: opening record stream: %w", err)
	}
	return &Reader{
		h:    h,
		z:    z,
		win:  make([]byte, windowSize),
		last: make([]int64, h.Config.Cores),
		wseq: make([]uint64, h.Config.Cores),
		hist: dlin.NewBuilder(h.Spec.Structure, h.Config.Cores),
	}, nil
}

// Header returns the validated trace header.
func (r *Reader) Header() Header { return r.h }

// Embedded returns the recorded run's embedded window result, available
// once the stream has been fully read (nil if the trace carries none).
func (r *Reader) Embedded() *EmbeddedResult { return r.embedded }

// Checksum is the CRC32 of the op-stream records read so far; after a
// clean EOF it is the trace's verified stream checksum.
func (r *Reader) Checksum() uint32 {
	r.foldCRC()
	return r.crc
}

// foldCRC folds the op-stream records decoded since the last fold into
// the stream checksum.
func (r *Reader) foldCRC() {
	r.crc = crc32.Update(r.crc, crcTab, r.win[r.crcFrom:r.pos])
	r.crcFrom = r.pos
}

// fill moves the undecoded bytes to the front of the window and tops it
// up from the gzip stream. It runs only at a record boundary.
func (r *Reader) fill() {
	r.foldCRC()
	r.end = copy(r.win, r.win[r.pos:r.end])
	r.pos, r.crcFrom = 0, 0
	for r.end < len(r.win) && r.zerr == nil {
		var n int
		n, r.zerr = r.z.Read(r.win[r.end:])
		r.end += n
	}
}

// short explains why the record being decoded does not fit in the
// window: n < 0 is a varint overflow; otherwise the stream stopped
// inside the record.
func (r *Reader) short(n int) error {
	if n < 0 {
		return errOverflow
	}
	if r.zerr != nil && r.zerr != io.EOF {
		return r.zerr
	}
	return io.ErrUnexpectedEOF
}

// Ops is the number of op records read so far.
func (r *Reader) Ops() uint64 { return r.ops }

// Records is the number of op-stream records read so far.
func (r *Reader) Records() uint64 { return r.recs }

// History returns the abstract operation history carried by the trace,
// nil when it was recorded without history capture. Call it once the
// stream has been fully read. Linearization stamps are rebuilt
// positionally — Stamp{tid, k} is thread tid's k-th dynamic write — which
// is exactly the stamp a Config.TrackHB replay of this trace assigns, so
// the history checks directly against the replay machine's tracker.
func (r *Reader) History() *dlin.History {
	// Every op-history record belongs to an operation, so a trace with
	// any has at least one.
	if h, err := r.hist.Finish(); err == nil && len(h.Ops) > 0 {
		return h
	}
	return nil
}

// histErr reports the builder's protocol error as a trace error.
func (r *Reader) histErr() error {
	if err := r.hist.Err(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func (r *Reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.win[r.p:r.end])
	if n <= 0 {
		return 0, r.short(n)
	}
	r.p += n
	return v, nil
}

func (r *Reader) readByte() (byte, error) {
	if r.p == r.end {
		return 0, r.short(0)
	}
	b := r.win[r.p]
	r.p++
	return b, nil
}

func (r *Reader) work() (engine.Time, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= maxWork {
		return 0, fmt.Errorf("trace: work gap %d out of range", v)
	}
	return engine.Time(v), nil
}

func (r *Reader) tid() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v >= uint64(len(r.last)) {
		return 0, fmt.Errorf("trace: thread %d on a %d-core machine", v, len(r.last))
	}
	return int(v), nil
}

// Next decodes the next op-stream record. It returns io.EOF after a
// verified end record; a stream that stops without one (truncation)
// returns an error. Result footers are absorbed into Embedded.
func (r *Reader) Next() (Rec, error) {
	for {
		rec, footer, err := r.next()
		if err != nil || !footer {
			return rec, err
		}
	}
}

func (r *Reader) next() (rec Rec, footer bool, err error) {
	if r.done {
		return rec, false, io.EOF
	}
	if r.end-r.pos < maxRecord && r.zerr == nil {
		r.fill()
	}
	if r.pos == r.end {
		if r.zerr == io.EOF {
			return rec, false, fmt.Errorf("trace: truncated stream (no end record)")
		}
		return rec, false, r.zerr
	}
	t := r.win[r.pos]
	r.p = r.pos + 1
	if t >= recResult {
		// Result, end and op-history records sit outside the
		// checksummed stream: fold the run of op-stream records they end.
		r.foldCRC()
	}
	switch {
	case t < 0x10:
		err = r.decodeOp(t, &rec)
	case t == recTick:
		rec.Type = RecTick
		if rec.TID, err = r.tid(); err == nil {
			rec.Work, err = r.work()
		}
	case t == recSync:
		rec.Type = RecSync
	case t == recDrain:
		rec.Type = RecDrain
	case t == recMark:
		rec.Type = RecMark
		rec.Mark, err = r.readByte()
	case t == recResult:
		rec.Type = RecResult
		err = r.decodeResult()
		footer = true
	case t == recOpBegin:
		err = r.decodeOpBegin()
		footer = true
	case t == recOpLin:
		err = r.decodeOpLin()
		footer = true
	case t == recOpEnd:
		err = r.decodeOpEnd()
		footer = true
	case t == recEnd:
		rec.Type = RecEnd
		err = r.decodeEnd()
		if err == nil {
			r.done = true
			err = io.EOF
		}
	default:
		err = fmt.Errorf("trace: unknown record type 0x%02x", t)
	}
	if err != nil {
		return rec, false, err
	}
	r.pos = r.p
	if footer {
		r.crcFrom = r.pos
	} else {
		r.recs++
	}
	return rec, footer, nil
}

func (r *Reader) decodeOp(t byte, rec *Rec) error {
	rec.Type = RecOp
	rec.Op.Kind = isa.OpKind(t & 3)
	rec.Op.Order = isa.Ordering(t >> 2)
	var err error
	if rec.TID, err = r.tid(); err != nil {
		return err
	}
	if rec.Work, err = r.work(); err != nil {
		return err
	}
	d, err := r.uvarint()
	if err != nil {
		return err
	}
	word := r.last[rec.TID] + unzigzag(d)
	// Bound the address space so a corrupt delta cannot drive the
	// sparse memory model into huge allocations during replay.
	if word < 0 || word >= 1<<44 {
		return fmt.Errorf("trace: address word %d out of range", word)
	}
	r.last[rec.TID] = word
	rec.Op.Addr = isa.Addr(word << 3)
	switch rec.Op.Kind {
	case isa.Load:
		if rec.Val, err = r.uvarint(); err != nil {
			return err
		}
		rec.OK = true
	case isa.Store:
		if rec.Op.Value, err = r.uvarint(); err != nil {
			return err
		}
		rec.OK = true
	case isa.CAS:
		if rec.Op.Expected, err = r.uvarint(); err != nil {
			return err
		}
		if rec.Op.Value, err = r.uvarint(); err != nil {
			return err
		}
		if rec.Val, err = r.uvarint(); err != nil {
			return err
		}
		b, err := r.readByte()
		if err != nil {
			return err
		}
		if b > 1 {
			return fmt.Errorf("trace: bad CAS outcome byte %d", b)
		}
		rec.OK = b == 1
	}
	if err := rec.Op.Validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.ops++
	if rec.Op.Kind == isa.Store || (rec.Op.Kind == isa.CAS && rec.OK) {
		r.wseq[rec.TID]++
	}
	return nil
}

func (r *Reader) decodeOpBegin() error {
	tid, err := r.tid()
	if err != nil {
		return err
	}
	kb, err := r.readByte()
	if err != nil {
		return err
	}
	kind := dlin.Kind(kb)
	if kind < dlin.OpInsert || kind > dlin.OpScan {
		return fmt.Errorf("trace: bad op-history kind %d", kb)
	}
	key, err := r.uvarint()
	if err != nil {
		return err
	}
	val, err := r.uvarint()
	if err != nil {
		return err
	}
	r.hist.RecordOpBegin(tid, kb, key, val)
	return r.histErr()
}

func (r *Reader) decodeOpLin() error {
	tid, err := r.tid()
	if err != nil {
		return err
	}
	r.hist.RecordOpLin(tid, model.Stamp{Tid: tid, Seq: r.wseq[tid]}, r.ops)
	if err := r.histErr(); err != nil {
		return err
	}
	if r.wseq[tid] == 0 {
		return fmt.Errorf("trace: thread %d linearizes before its first write", tid)
	}
	return nil
}

func (r *Reader) decodeOpEnd() error {
	tid, err := r.tid()
	if err != nil {
		return err
	}
	okb, err := r.readByte()
	if err != nil {
		return err
	}
	if okb > 1 {
		return fmt.Errorf("trace: bad op-history outcome byte %d", okb)
	}
	ret, err := r.uvarint()
	if err != nil {
		return err
	}
	r.hist.RecordOpEnd(tid, okb == 1, ret)
	return r.histErr()
}

func (r *Reader) decodeResult() error {
	if r.embedded != nil {
		return fmt.Errorf("trace: duplicate result record")
	}
	e := &EmbeddedResult{}
	v, err := r.uvarint()
	if err != nil {
		return err
	}
	e.ExecTime = engine.Time(v)
	if e.ExecTime < 0 {
		return fmt.Errorf("trace: result time overflows")
	}
	if e.Ops, err = r.uvarint(); err != nil {
		return err
	}
	for _, dst := range []*[]uint64{&e.Sys, &e.NVM} {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > maxResultLen {
			return fmt.Errorf("trace: result vector length %d out of range", n)
		}
		vec := make([]uint64, n)
		for i := range vec {
			if vec[i], err = r.uvarint(); err != nil {
				return err
			}
		}
		*dst = vec
	}
	r.embedded = e
	return nil
}

func (r *Reader) decodeEnd() error {
	recs, err := r.uvarint()
	if err != nil {
		return err
	}
	ops, err := r.uvarint()
	if err != nil {
		return err
	}
	var cb [4]byte
	for i := range cb {
		if cb[i], err = r.readByte(); err != nil {
			return err
		}
	}
	if recs != r.recs {
		return fmt.Errorf("trace: stream has %d records, end record says %d", r.recs, recs)
	}
	if ops != r.ops {
		return fmt.Errorf("trace: stream has %d ops, end record says %d", r.ops, ops)
	}
	if want := binary.LittleEndian.Uint32(cb[:]); want != r.crc {
		return fmt.Errorf("trace: stream checksum %08x, want %08x", r.crc, want)
	}
	if _, err := r.hist.Finish(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	// The end record must be the last: a clean EOF of the gzip member
	// must follow (this also forces the gzip footer checks to run). Every byte in
	// the window is decoded by now, so the probe may overwrite it.
	extra := r.end - r.p
	for extra == 0 && r.zerr == nil {
		extra, r.zerr = r.z.Read(r.win[:1])
	}
	if extra > 0 {
		return fmt.Errorf("trace: data after end record")
	}
	if r.zerr != io.EOF {
		return fmt.Errorf("trace: after end record: %w", r.zerr)
	}
	// The member must end the file: a byte after it, even one starting
	// an empty gzip member, is trailing data.
	more, err := r.z.trailing()
	if err != nil {
		return fmt.Errorf("trace: after end record: %w", err)
	}
	if more {
		return fmt.Errorf("trace: data after end record's gzip member")
	}
	return nil
}
