package trace

import (
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
)

// This file is the trace body's decompressor: a streaming DEFLATE
// (RFC 1951) kernel inside the gzip member framing (RFC 1952) that
// trace.Reader reads through. It accepts and rejects exactly what
// compress/flate and compress/gzip do (FuzzInflate, TestInflateRejects
// and TestGzipFramingMatchesGzip hold it to that) and returns their error
// values, but it decodes faster: it reads compressed input from its own
// buffer, refills a 64-bit bit buffer eight bytes at a time, and decodes
// each literal/length and distance code with one primary table lookup,
// plus one subtable lookup for codes longer than the primary width. Its
// buffers are fixed, so a body is never decompressed whole.

const (
	inBufSize = 16 << 10 // compressed input read from src per refill

	// histSize is DEFLATE's window, the farthest a match reaches back.
	// The output buffer keeps that much history in front of the bytes
	// a step decodes.
	histSize   = 32 << 10
	outBufSize = histSize + 32<<10

	maxMatch   = 258 // the longest match, so the most one symbol writes
	maxNumLit  = 286 // literal/length symbols a dynamic block may code
	maxNumDist = 30  // distance symbols a dynamic block may code

	// Primary table index widths. Codes longer than these go through a
	// subtable. No code-length code is longer than seven bits.
	litBits  = 10
	distBits = 8
	clenBits = 7
)

// A table entry packs the code length to consume (low byte), a kind
// flag, a 4-bit count (extra bits after a length or distance code, or a
// subtable's index width) and a 16-bit value: a literal byte, a length
// or distance base, a code-length symbol, or a subtable's offset. The
// zero entry is an invalid code: unused by an incomplete code, or a
// symbol no stream may use (literal/length 286 and 287, distance 30 and
// 31).
const (
	entLit  = 1 << 8  // a literal byte, or a code-length symbol
	entBase = 1 << 9  // a length or distance: base plus extra bits
	entEnd  = 1 << 10 // end of block
	entSub  = 1 << 11 // a link to the subtable for a long code's suffix
)

// The per-symbol entries (without code lengths) of the three alphabets.
var litSyms, distSyms, clenSyms = symbolEntries()

// The fixed-code block tables (RFC 1951 §3.2.6).
var fixedLit, fixedDist = fixedTables()

// clenOrder is the order of the code-length code's lengths in a dynamic
// block header.
var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func symbolEntries() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := 0; s < 256; s++ {
		lit[s] = entLit | uint32(s)<<16
	}
	lit[256] = entEnd
	base := 3
	for s := 257; s < 285; s++ {
		extra := 0
		if s >= 265 {
			extra = (s - 261) / 4
		}
		lit[s] = entBase | uint32(extra)<<12 | uint32(base)<<16
		base += 1 << extra
	}
	lit[285] = entBase | 258<<16
	base = 1
	for s := 0; s < maxNumDist; s++ {
		extra := 0
		if s >= 4 {
			extra = (s - 2) / 2
		}
		dist[s] = entBase | uint32(extra)<<12 | uint32(base)<<16
		base += 1 << extra
	}
	for s := range clen {
		clen[s] = entLit | uint32(s)<<16
	}
	return
}

func fixedTables() (lit, dist []uint32) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	lit, _ = buildTable(nil, litBits, lens[:], litSyms[:])
	for s := range lens[:32] {
		lens[s] = 5
	}
	dist, _ = buildTable(nil, distBits, lens[:32], distSyms[:])
	return lit, dist
}

// buildTable makes t the decoding table, of primary index width
// primary, for the canonical code with code lengths lens over symbols
// whose entries are syms. It reports false for the codes compress/flate
// rejects: over-subscribed or incomplete ones, except a single code of
// length one. An empty code builds a table of invalid entries, which
// fails only when a stream uses it.
func buildTable(t []uint32, primary int, lens []uint8, syms []uint32) ([]uint32, bool) {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	maxLen, total := 0, 0
	for l := 1; l < 16; l++ {
		if count[l] > 0 {
			maxLen = l
		}
	}
	for l := 1; l <= maxLen; l++ {
		total = total<<1 + count[l]
	}
	size := 1 << primary
	if cap(t) < size {
		t = make([]uint32, size, size+size/2)
	}
	t = t[:size]
	clear(t)
	if maxLen == 0 {
		return t, true
	}
	if total != 1<<maxLen && !(total == 1 && maxLen == 1) {
		return t, false
	}
	// next[l] is the next canonical code of length l.
	var next [16]int
	code := 0
	for l := 1; l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	// A code longer than primary goes in the subtable of its first
	// primary bits, as wide as the longest code sharing them needs.
	var subw [1 << litBits]uint8
	if maxLen > primary {
		nc := next
		for _, l := range lens {
			if int(l) > primary {
				p := reverse(nc[l], int(l)) & (size - 1)
				nc[l]++
				subw[p] = max(subw[p], l-uint8(primary))
			}
		}
		for p, w := range subw[:size] {
			if w > 0 {
				t[p] = entSub | uint32(w)<<12 | uint32(len(t))<<16 | uint32(primary)
				t = append(t, make([]uint32, 1<<w)...)
			}
		}
	}
	for s, l := range lens {
		if l == 0 {
			continue
		}
		rev := reverse(next[l], int(l))
		next[l]++
		e := syms[s]
		if int(l) <= primary {
			for i := rev; i < size; i += 1 << l {
				t[i] = e | uint32(l)
			}
			continue
		}
		link := t[rev&(size-1)]
		off := int(link >> 16)
		sub := t[off : off+1<<(link>>12&15)]
		for i := rev >> primary; i < len(sub); i += 1 << (int(l) - primary) {
			sub[i] = e | uint32(int(l)-primary)
		}
	}
	return t, true
}

// reverse returns the low n bits of code in reverse order: DEFLATE packs
// Huffman codes from their most significant bit, and the bit buffer
// hands out bits least significant first.
func reverse(code, n int) int {
	return int(bits.Reverse16(uint16(code)) >> (16 - n))
}

// Decoder states between steps.
const (
	stHeader  = iota // at a block header
	stStored         // inside a stored block
	stHuffman        // inside a Huffman-coded block
	stTrailer        // the final block has ended
)

// inflater decodes one DEFLATE stream from src, in a gzip member once
// gzipHeader has read the member's header. Read hands out the decoded
// bytes; a gzip member's CRC32 and ISIZE trailer is checked once the
// final block ends.
type inflater struct {
	src    io.Reader
	srcErr error // src's error once it stops; io.EOF at its end

	// in[ip:iend] is input read from src and not yet consumed. in[0] is
	// byte off of src.
	in       []byte
	ip, iend int
	off      int64

	// bits holds nbits input bits not yet consumed, the next one least
	// significant. The bits above them are zero, and the whole bytes
	// among them are in[ip-nbits/8:ip].
	bits  uint64
	nbits int

	// out[rpos:wpos] is decoded and not yet read. The history a match
	// may copy from is out[:wpos]: out keeps the last histSize bytes of
	// it whenever it makes room.
	out        []byte
	rpos, wpos int

	state  int
	final  bool // the current block is the last
	stored int  // bytes left in the current stored block

	lit, dist       []uint32 // the current Huffman block's tables
	dynLit, dynDist []uint32 // dynamic blocks' table storage
	clen            []uint32
	lens            [maxNumLit + maxNumDist]uint8
	gz              bool // inside a gzip member: check its trailer
	crc, size       uint32
	err             error // io.EOF once the stream has ended cleanly
}

func newInflater(src io.Reader) *inflater {
	return &inflater{
		src: src,
		in:  make([]byte, inBufSize),
		out: make([]byte, outBufSize),
	}
}

// more moves the unread input, and the up to eight bytes before it that
// the bit buffer may still hold, to the front of the input buffer and
// reads src until at least eight bytes are unread or src stops.
func (d *inflater) more() {
	keep := min(d.ip, 8)
	d.off += int64(d.ip - keep)
	d.iend = copy(d.in, d.in[d.ip-keep:d.iend])
	d.ip = keep
	for empty := 0; d.iend-d.ip < 8 && d.srcErr == nil; {
		n, err := d.src.Read(d.in[d.iend:])
		d.iend += n
		d.srcErr = err
		if n == 0 && err == nil {
			if empty++; empty == 100 {
				d.srcErr = io.ErrNoProgress
			}
		}
	}
}

// short is the error for input that stops inside the stream.
func (d *inflater) short() error {
	if d.srcErr == nil || d.srcErr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.srcErr
}

// corrupt is compress/flate's error for a stream it cannot decode.
func (d *inflater) corrupt() error {
	return flate.CorruptInputError(d.off + int64(d.ip))
}

// refill loads input into the bit buffer until it holds at least 56
// bits, or every input byte there is.
func (d *inflater) refill() {
	if d.iend-d.ip < 8 && d.srcErr == nil {
		d.more()
	}
	if d.iend-d.ip >= 8 {
		d.bits |= binary.LittleEndian.Uint64(d.in[d.ip:]) << uint(d.nbits)
		k := (63 - d.nbits) >> 3
		d.ip += k
		d.nbits += k << 3
		d.bits &= 1<<uint(d.nbits) - 1
		return
	}
	for d.nbits <= 56 && d.ip < d.iend {
		d.bits |= uint64(d.in[d.ip]) << uint(d.nbits)
		d.ip++
		d.nbits += 8
	}
}

// need reports whether the bit buffer holds at least n bits, loading
// input if it does not.
func (d *inflater) need(n int) bool {
	if d.nbits < n {
		d.refill()
	}
	return d.nbits >= n
}

// take consumes n bits the bit buffer holds.
func (d *inflater) take(n int) int {
	v := int(d.bits & (1<<uint(n) - 1))
	d.bits >>= uint(n)
	d.nbits -= n
	return v
}

// align drops the bits up to the next byte boundary and hands the whole
// bytes the bit buffer holds back to the input buffer.
func (d *inflater) align() {
	d.ip -= d.nbits >> 3
	d.bits, d.nbits = 0, 0
}

// readFull reads len(p) input bytes at a byte boundary, with
// io.ReadFull's errors: io.EOF if the input has ended, and
// io.ErrUnexpectedEOF if it ends inside p.
func (d *inflater) readFull(p []byte) error {
	n := 0
	for n < len(p) {
		if d.ip == d.iend {
			d.more()
			if d.ip == d.iend {
				if n == 0 && d.srcErr == io.EOF {
					return io.EOF
				}
				return d.short()
			}
		}
		k := copy(p[n:], d.in[d.ip:d.iend])
		d.ip += k
		n += k
	}
	return nil
}

// readByte reads one input byte at a byte boundary.
func (d *inflater) readByte() (byte, error) {
	var b [1]byte
	err := d.readFull(b[:])
	return b[0], err
}

// noEOF turns an end of input inside the gzip header into
// io.ErrUnexpectedEOF, as compress/gzip does.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// The gzip header's FLG bits (RFC 1952 §2.3.1).
const (
	gzHdrCRC  = 1 << 1 // bit 0, FTEXT, is a hint
	gzExtra   = 1 << 2
	gzName    = 1 << 3
	gzComment = 1 << 4
)

// gzipHeader reads a gzip member's header with compress/gzip's checks
// and errors: the magic and the DEFLATE method (gzip.ErrHeader), an
// extra field, a name and a comment of at most 511 bytes each
// (gzip.ErrHeader beyond), and the header CRC16 (gzip.ErrHeader on a
// mismatch). Like compress/gzip it ignores the reserved FLG bits, and it
// reads io.EOF from an input that ends before the header starts.
func (d *inflater) gzipHeader() error {
	var h [10]byte
	if err := d.readFull(h[:]); err != nil {
		return err
	}
	if h[0] != 0x1f || h[1] != 0x8b || h[2] != 8 {
		return gzip.ErrHeader
	}
	flg := h[3]
	digest := crc32.ChecksumIEEE(h[:])
	var buf [512]byte
	if flg&gzExtra != 0 {
		if err := d.readFull(buf[:2]); err != nil {
			return noEOF(err)
		}
		digest = crc32.Update(digest, crc32.IEEETable, buf[:2])
		for n := int(binary.LittleEndian.Uint16(buf[:2])); n > 0; {
			k := min(n, len(buf))
			if err := d.readFull(buf[:k]); err != nil {
				return noEOF(err)
			}
			digest = crc32.Update(digest, crc32.IEEETable, buf[:k])
			n -= k
		}
	}
	for _, f := range []byte{gzName, gzComment} {
		if flg&f == 0 {
			continue
		}
		// A zero-terminated string of at most 512 bytes, the zero
		// included.
		for i := 0; ; i++ {
			if i == len(buf) {
				return gzip.ErrHeader
			}
			b, err := d.readByte()
			if err != nil {
				return noEOF(err)
			}
			if buf[i] = b; b == 0 {
				digest = crc32.Update(digest, crc32.IEEETable, buf[:i+1])
				break
			}
		}
	}
	if flg&gzHdrCRC != 0 {
		var x [2]byte
		if err := d.readFull(x[:]); err != nil {
			return noEOF(err)
		}
		if binary.LittleEndian.Uint16(x[:]) != uint16(digest) {
			return gzip.ErrHeader
		}
	}
	d.gz = true
	return nil
}

// Read hands out decoded bytes, decoding more when none are left. After
// the last byte it returns the stream's end: io.EOF, or the error that
// stopped decoding.
func (d *inflater) Read(p []byte) (int, error) {
	for d.rpos == d.wpos {
		if d.err != nil {
			return 0, d.err
		}
		d.step()
	}
	n := copy(p, d.out[d.rpos:d.wpos])
	d.rpos += n
	return n, nil
}

// step decodes until the output buffer has no room for another match,
// the stream ends, or decoding fails. It runs only when every decoded
// byte has been read, so it may first move the last histSize bytes to
// the front of the output buffer to make room.
func (d *inflater) step() {
	if d.wpos >= len(d.out)-maxMatch {
		d.wpos = copy(d.out, d.out[d.wpos-histSize:d.wpos])
		d.rpos = d.wpos
	}
	from := d.wpos
	for d.err == nil && d.state < stTrailer && d.wpos < len(d.out)-maxMatch {
		switch d.state {
		case stHeader:
			d.blockHeader()
		case stStored:
			d.copyStored()
		case stHuffman:
			d.huffman()
		}
	}
	if d.gz {
		d.crc = crc32.Update(d.crc, crc32.IEEETable, d.out[from:d.wpos])
		d.size += uint32(d.wpos - from)
	}
	if d.err == nil && d.state == stTrailer {
		d.trailer()
	}
}

// endBlock moves past the block just decoded.
func (d *inflater) endBlock() {
	d.state = stHeader
	if d.final {
		d.state = stTrailer
	}
}

// trailer ends the stream: for a gzip member it checks the CRC32 and
// ISIZE trailer (gzip.ErrChecksum on a mismatch).
func (d *inflater) trailer() {
	d.err = io.EOF
	if !d.gz {
		return
	}
	d.align()
	var t [8]byte
	if err := d.readFull(t[:]); err != nil {
		d.err = noEOF(err)
		return
	}
	if binary.LittleEndian.Uint32(t[:4]) != d.crc || binary.LittleEndian.Uint32(t[4:]) != d.size {
		d.err = gzip.ErrChecksum
	}
}

// trailing reports whether any input follows the stream, which must
// have ended.
func (d *inflater) trailing() (bool, error) {
	if d.ip == d.iend {
		d.more()
	}
	if d.ip < d.iend {
		return true, nil
	}
	if d.srcErr != io.EOF {
		return false, d.srcErr
	}
	return false, nil
}

// blockHeader reads a block's header, and a dynamic block's code
// lengths.
func (d *inflater) blockHeader() {
	if !d.need(3) {
		d.err = d.short()
		return
	}
	d.final = d.take(1) == 1
	switch d.take(2) {
	case 0:
		d.align()
		var h [4]byte
		if err := d.readFull(h[:]); err != nil {
			d.err = noEOF(err)
			return
		}
		n := binary.LittleEndian.Uint16(h[:2])
		if binary.LittleEndian.Uint16(h[2:]) != ^n {
			d.err = d.corrupt()
			return
		}
		d.stored = int(n)
		d.state = stStored
	case 1:
		d.lit, d.dist = fixedLit, fixedDist
		d.state = stHuffman
	case 2:
		if d.dynamicTables() {
			d.lit, d.dist = d.dynLit, d.dynDist
			d.state = stHuffman
		}
	default:
		d.err = d.corrupt()
	}
}

// dynamicTables reads a dynamic block's code lengths (RFC 1951 §3.2.7)
// and builds its tables, with compress/flate's checks.
func (d *inflater) dynamicTables() bool {
	if !d.need(14) {
		d.err = d.short()
		return false
	}
	nlit := d.take(5) + 257
	ndist := d.take(5) + 1
	nclen := d.take(4) + 4
	if nlit > maxNumLit || ndist > maxNumDist {
		d.err = d.corrupt()
		return false
	}
	var cl [19]uint8
	for _, s := range clenOrder[:nclen] {
		if !d.need(3) {
			d.err = d.short()
			return false
		}
		cl[s] = uint8(d.take(3))
	}
	var ok bool
	if d.clen, ok = buildTable(d.clen, clenBits, cl[:], clenSyms[:]); !ok {
		d.err = d.corrupt()
		return false
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if d.nbits < 15 {
			d.refill()
		}
		// Past the input's end the bit buffer reads as zeros; a code
		// that needed them drives nbits negative.
		e := d.clen[d.bits&(1<<clenBits-1)]
		d.take(int(e & 0xff))
		if d.nbits < 0 {
			d.err = d.short()
			return false
		}
		if e == 0 {
			d.err = d.corrupt()
			return false
		}
		sym := int(e >> 16)
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep, nb int
		var l uint8
		switch sym {
		case 16:
			if i == 0 {
				d.err = d.corrupt()
				return false
			}
			rep, nb, l = 3, 2, lens[i-1]
		case 17:
			rep, nb = 3, 3
		default:
			rep, nb = 11, 7
		}
		if !d.need(nb) {
			d.err = d.short()
			return false
		}
		rep += d.take(nb)
		if i+rep > len(lens) {
			d.err = d.corrupt()
			return false
		}
		for ; rep > 0; rep-- {
			lens[i] = l
			i++
		}
	}
	if d.dynLit, ok = buildTable(d.dynLit, litBits, lens[:nlit], litSyms[:]); !ok {
		d.err = d.corrupt()
		return false
	}
	if d.dynDist, ok = buildTable(d.dynDist, distBits, lens[nlit:], distSyms[:]); !ok {
		d.err = d.corrupt()
		return false
	}
	return true
}

// copyStored copies a stored block's bytes, as many as fit.
func (d *inflater) copyStored() {
	for d.stored > 0 && d.wpos < len(d.out) {
		if d.ip == d.iend {
			d.more()
			if d.ip == d.iend {
				d.err = d.short()
				return
			}
		}
		n := copy(d.out[d.wpos:min(len(d.out), d.wpos+d.stored)], d.in[d.ip:d.iend])
		d.ip += n
		d.wpos += n
		d.stored -= n
	}
	if d.stored == 0 {
		d.endBlock()
	}
}

// huffman decodes a Huffman-coded block until it ends or the output
// buffer has no room for another match. The decoder state lives in
// locals across the loop.
//
// The bit buffer is refilled whenever it holds fewer than 48 bits, the
// most one length/distance pair takes (15+5+15+13). Near the end of the
// input it may hold fewer; the bits past the end read as zeros, and a
// symbol that needed them drives nbits negative, which is checked
// before the symbol is used.
func (d *inflater) huffman() {
	lt := (*[1 << litBits]uint32)(d.lit)
	dt := (*[1 << distBits]uint32)(d.dist)
	bits, nbits := d.bits, d.nbits
	in, ip := d.in[:d.iend], d.ip
	out, wpos := d.out, d.wpos
	var err error
	for limit := len(out) - maxMatch; wpos < limit; {
		if ip+8 <= len(in) {
			// Load the next eight bytes over the bits held: the bytes
			// the buffer has no room for stay above nbits, and the next
			// load writes the same bits over them.
			bits |= binary.LittleEndian.Uint64(in[ip:]) << uint(nbits)
			ip += (63 - nbits) >> 3
			nbits |= 56
		} else if nbits < 48 {
			d.bits, d.nbits, d.ip = bits&(1<<uint(nbits)-1), nbits, ip
			d.refill()
			bits, nbits, in, ip = d.bits, d.nbits, d.in[:d.iend], d.ip
		}
		e := lt[bits&(1<<litBits-1)]
		if e&entSub != 0 {
			bits >>= litBits
			nbits -= litBits
			e = d.lit[e>>16+uint32(bits)&(1<<(e>>12&15)-1)]
		}
		bits >>= e & 0xff
		nbits -= int(e & 0xff)
		if nbits < 0 {
			err = d.short()
			break
		}
		if e&entLit != 0 {
			out[wpos] = byte(e >> 16)
			wpos++
			// Most symbols are literals: take a second one from the
			// bits left if its code is in the primary table.
			e = lt[bits&(1<<litBits-1)]
			if e&entLit != 0 && int(e&0xff) <= nbits {
				bits >>= e & 0xff
				nbits -= int(e & 0xff)
				out[wpos] = byte(e >> 16)
				wpos++
			}
			continue
		}
		if e&entBase == 0 {
			if e&entEnd != 0 {
				d.endBlock()
			} else {
				err = flate.CorruptInputError(d.off + int64(ip))
			}
			break
		}
		n := e >> 12 & 15
		length := int(e>>16) + int(bits&(1<<n-1))
		bits >>= n
		nbits -= int(n)

		e = dt[bits&(1<<distBits-1)]
		if e&entSub != 0 {
			bits >>= distBits
			nbits -= distBits
			e = d.dist[e>>16+uint32(bits)&(1<<(e>>12&15)-1)]
		}
		bits >>= e & 0xff
		nbits -= int(e & 0xff)
		n = e >> 12 & 15
		dist := int(e>>16) + int(bits&(1<<n-1))
		bits >>= n
		nbits -= int(n)
		if nbits < 0 {
			err = d.short()
			break
		}
		if e&entBase == 0 || dist > wpos {
			err = flate.CorruptInputError(d.off + int64(ip))
			break
		}
		from, end := wpos-dist, wpos+length
		if dist >= 8 && length <= 16 {
			// A short match copies 16 bytes, eight at a time: no chunk
			// reads a byte it has not yet written, and the output
			// buffer has room past limit for the bytes beyond end.
			binary.LittleEndian.PutUint64(out[wpos:], binary.LittleEndian.Uint64(out[from:]))
			binary.LittleEndian.PutUint64(out[wpos+8:], binary.LittleEndian.Uint64(out[from+8:]))
			wpos = end
			continue
		}
		// A match may overlap the bytes it writes: each copy doubles
		// the span it copies from.
		for wpos < end {
			wpos += copy(out[wpos:end], out[from:wpos])
		}
	}
	if nbits >= 0 {
		bits &= 1<<uint(nbits) - 1
	}
	d.bits, d.nbits, d.ip, d.wpos, d.err = bits, nbits, ip, wpos, err
}
