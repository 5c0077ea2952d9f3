package trace

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"

	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/workload"
)

// kvRecording is the kv trace e2ebench's replay-kv workload replays
// (recorded under NOP on 16 cores: 8 threads, 4096 keys, 200 ops per
// thread, seed 7), recorded once per test binary.
var kvRecording = sync.OnceValues(func() ([]byte, error) {
	cfg := memsys.DefaultConfig()
	cfg.Mechanism = mech.NOP
	cfg.Cores = 16
	spec := workload.Spec{Structure: "kv", Threads: 8, InitialSize: 4096, OpsPerThread: 200, Seed: 7}
	var buf bytes.Buffer
	_, _, _, err := Record(cfg, spec, &buf)
	return buf.Bytes(), err
})

// kvTrace returns the kv trace and its decompressed record body.
func kvTrace(tb testing.TB) (raw, body []byte) {
	tb.Helper()
	raw, err := kvRecording()
	if err != nil {
		tb.Fatal(err)
	}
	_, member := splitTrace(tb, raw)
	return raw, gunzip(tb, member)
}

// inflateKernel decodes a raw DEFLATE stream with the kernel.
func inflateKernel(src io.Reader) ([]byte, error) {
	return io.ReadAll(newInflater(src))
}

// inflateFlate decodes a raw DEFLATE stream with compress/flate.
func inflateFlate(b []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(b)))
}

// deflate compresses b with compress/flate at level.
func deflate(tb testing.TB, b []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(b); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// farMatches is 32 KiB of random bytes followed by two copies of them:
// every byte after the first 32 KiB repeats the one exactly a window
// back.
func farMatches() []byte {
	r := rand.New(rand.NewSource(3))
	b := make([]byte, histSize)
	r.Read(b)
	return bytes.Repeat(b, 3)
}

// bitWriter writes a DEFLATE stream by hand.
type bitWriter struct {
	b   []byte
	acc uint64
	n   uint
}

// bits writes the low n bits of v, least significant first.
func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint64, n uint) {
	w.bits(uint64(bits.Reverse16(uint16(c))>>(16-n)), n)
}

// align pads to a byte boundary.
func (w *bitWriter) align() {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
}

func (w *bitWriter) bytes() []byte {
	w.align()
	return w.b
}

// fixedLitCode writes literal/length symbol s in the fixed code.
func (w *bitWriter) fixedLitCode(s int) {
	switch {
	case s < 144:
		w.code(uint64(0x30+s), 8)
	case s < 256:
		w.code(uint64(0x190+s-144), 9)
	case s < 280:
		w.code(uint64(s-256), 7)
	default:
		w.code(uint64(0xc0+s-280), 8)
	}
}

// dynamicHeader writes the header of a final dynamic block with the
// given code lengths. The code-length code gives each of the lengths
// 0–15 a 4-bit code, so every length is written as itself.
func (w *bitWriter) dynamicHeader(lit, dist []uint8) {
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(uint64(len(lit)-257), 5)
	w.bits(uint64(len(dist)-1), 5)
	w.bits(19-4, 4)
	for _, s := range clenOrder {
		if s < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		w.code(uint64(l), 4)
	}
}

// farMatchStream is a stored block of 32 KiB of random bytes followed
// by a fixed-code block of 258-byte matches at distance 32768.
func farMatchStream() []byte {
	var w bitWriter
	w.bits(0, 3) // stored, not final
	w.align()
	w.bits(histSize-1, 16)
	w.bits(^uint64(histSize-1)&0xffff, 16)
	w.b = append(w.b, farMatches()[:histSize-1]...)
	w.bits(1, 1) // fixed, final: one literal, then 300 far matches
	w.bits(1, 2)
	w.fixedLitCode('x')
	for i := 0; i < 300; i++ {
		w.fixedLitCode(285) // length 258
		w.code(29, 5)       // distance 24577 + 13 extra bits
		w.bits(8191, 13)
	}
	w.fixedLitCode(256)
	return w.bytes()
}

// TestInflateMatchesFlate: on every stream compress/flate writes, at
// every level from HuffmanOnly to BestCompression and with stored blocks
// only, the kernel returns the bytes compress/flate does. The inputs are
// the kv trace body, random bytes, far matches and an empty body; the kv
// body is also read through a source that returns one byte per Read.
func TestInflateMatchesFlate(t *testing.T) {
	_, kv := kvTrace(t)
	random := make([]byte, 100<<10)
	rand.New(rand.NewSource(1)).Read(random)
	inputs := []struct {
		name string
		b    []byte
	}{
		{"kv-body", kv},
		{"random", random},
		{"far-matches", farMatches()},
		{"empty", nil},
	}
	for _, in := range inputs {
		for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
			z := deflate(t, in.b, level)
			got, err := inflateKernel(bytes.NewReader(z))
			if err != nil {
				t.Fatalf("%s at level %d: %v", in.name, level, err)
			}
			if !bytes.Equal(got, in.b) {
				t.Fatalf("%s at level %d: kernel output differs from the input", in.name, level)
			}
		}
	}
	z := deflate(t, kv, flate.DefaultCompression)
	if got, err := inflateKernel(iotest.OneByteReader(bytes.NewReader(z))); err != nil || !bytes.Equal(got, kv) {
		t.Fatalf("kv body read a byte at a time: err %v, equal %v", err, bytes.Equal(got, kv))
	}
	far := farMatchStream()
	want, err := inflateFlate(far)
	if err != nil {
		t.Fatalf("flate rejects the far-match stream: %v", err)
	}
	if got, err := inflateKernel(bytes.NewReader(far)); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("far-match stream: err %v, equal %v", err, bytes.Equal(got, want))
	}
}

// inflateCases are hand-written streams: three that compress/flate
// accepts, and one it rejects for each check the kernel must make.
func inflateCases() []struct {
	name string
	b    []byte
	ok   bool
} {
	// A final dynamic block of 'a' and the end of block, coded as 0 and
	// 1 where lits gives both length 1. It has nlit literal/length code
	// lengths, those in lits set, and the distance code lengths dist.
	dyn := func(nlit int, lits map[int]uint8, dist []uint8) []byte {
		l := make([]uint8, nlit)
		for s, n := range lits {
			l[s] = n
		}
		var w bitWriter
		w.dynamicHeader(l, dist)
		w.code(0, 1)
		w.code(1, 1)
		return w.bytes()
	}
	fixed := func(syms ...int) []byte {
		var w bitWriter
		w.bits(1, 1)
		w.bits(1, 2)
		for _, s := range syms {
			w.fixedLitCode(s)
		}
		return w.bytes()
	}
	// A fixed-code match of length 3 at distance code d, after n
	// literals.
	match := func(n int, d uint64) []byte {
		var w bitWriter
		w.bits(1, 1)
		w.bits(1, 2)
		for i := 0; i < n; i++ {
			w.fixedLitCode('a')
		}
		w.fixedLitCode(257)
		w.code(d, 5)
		w.fixedLitCode(256)
		return w.bytes()
	}
	return []struct {
		name string
		b    []byte
		ok   bool
	}{
		{"dynamic-valid", dyn(257, map[int]uint8{'a': 1, 256: 1}, []uint8{1}), true},
		{"fixed-valid", fixed('a', 'b', 256), true},
		{"incomplete-tree", dyn(257, map[int]uint8{'a': 1, 256: 2}, []uint8{1}), false},
		{"oversubscribed-tree", dyn(257, map[int]uint8{'a': 1, 'b': 1, 256: 1}, []uint8{1}), false},
		{"incomplete-distance-tree", dyn(257, map[int]uint8{'a': 1, 256: 1}, []uint8{2, 2, 2}), false},
		{"length-symbol-286", fixed('a', 286, 256), false},
		{"length-symbol-287", fixed('a', 287, 256), false},
		{"fixed-match", match(1, 0), true},
		{"distance-symbol-30", match(1, 30), false},
		{"distance-symbol-31", match(1, 31), false},
		{"hlit-287", dyn(287, map[int]uint8{'a': 1, 256: 1}, []uint8{1}), false},
		{"hdist-31", dyn(257, map[int]uint8{'a': 1, 256: 1}, make([]uint8, 31)), false},
		{"match-before-start", match(0, 0), false},
		{"match-past-start", match(2, 2), false},
		{"nlen-mismatch", func() []byte {
			var w bitWriter
			w.bits(1, 1)
			w.bits(0, 2)
			w.align()
			w.bits(3, 16)
			w.bits(3, 16)
			w.b = append(w.b, "abc"...)
			return w.bytes()
		}(), false},
		{"block-type-3", func() []byte {
			var w bitWriter
			w.bits(1, 1)
			w.bits(3, 2)
			return w.bytes()
		}(), false},
		{"truncated", fixed('a', 'b')[:1], false},
	}
}

// TestInflateRejects: the kernel rejects incomplete and over-subscribed
// trees, the symbols no stream may use, a match reaching back past the
// start, a stored block whose NLEN is not LEN's complement and block
// type 3, as compress/flate does, and accepts the valid controls.
func TestInflateRejects(t *testing.T) {
	for _, c := range inflateCases() {
		t.Run(c.name, func(t *testing.T) {
			want, ferr := inflateFlate(c.b)
			if (ferr == nil) != c.ok {
				t.Fatalf("compress/flate: err %v, the case expects ok=%v", ferr, c.ok)
			}
			got, err := inflateKernel(bytes.NewReader(c.b))
			if (err == nil) != c.ok {
				t.Fatalf("kernel: err %v, want ok=%v", err, c.ok)
			}
			if c.ok && !bytes.Equal(got, want) {
				t.Fatalf("kernel returned %q, compress/flate %q", got, want)
			}
		})
	}
}

// FuzzInflate: on any input the kernel and compress/flate agree on
// success or failure, and on success return the same bytes. The kernel
// must not panic.
func FuzzInflate(f *testing.F) {
	random := make([]byte, 4<<10)
	rand.New(rand.NewSource(2)).Read(random)
	text := bytes.Repeat([]byte("lazy release persistency "), 200)
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		f.Add(deflate(f, text, level))
		f.Add(deflate(f, random, level))
	}
	f.Add(deflate(f, nil, flate.DefaultCompression))
	for _, c := range inflateCases() {
		f.Add(c.b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		want, ferr := inflateFlate(b)
		got, err := inflateKernel(bytes.NewReader(b))
		if (err == nil) != (ferr == nil) {
			t.Fatalf("kernel err %v, compress/flate err %v", err, ferr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("kernel returned %d bytes, compress/flate %d, and they differ", len(got), len(want))
		}
	})
}

// TestReaderStreamsBody: decoding a trace allocates a fixed amount, not
// one that grows with the body. The kv trace's body is about 40 times
// the 48 KiB record window; the reader must allocate less than a
// quarter of it, which a reader holding the decompressed body fails.
func TestReaderStreamsBody(t *testing.T) {
	raw, body := kvTrace(t)
	if len(body) < 8*windowSize {
		t.Fatalf("body of %d bytes is under 8 windows", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeAll(raw)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(len(body))/4 {
		t.Fatalf("decoding a %d-byte body allocated %d bytes, want under a quarter of it", len(body), alloc)
	}
}

// gunzipKernel decodes one gzip member with the kernel.
func gunzipKernel(b []byte) ([]byte, error) {
	d := newInflater(bytes.NewReader(b))
	if err := d.gzipHeader(); err != nil {
		return nil, err
	}
	return io.ReadAll(d)
}

// gunzipStd decodes the first gzip member with compress/gzip.
func gunzipStd(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	return io.ReadAll(zr)
}

// TestGzipFramingMatchesGzip: the kernel reads a gzip member's header
// and trailer as compress/gzip does. Every FLG bit is set in turn (the
// header CRC right and wrong), names run to the 512-byte limit, and the
// magic, method, CRC32, ISIZE and truncations are damaged; the kernel
// must accept exactly the members compress/gzip accepts, return the same
// bytes, and return gzip.ErrHeader and gzip.ErrChecksum where it does.
func TestGzipFramingMatchesGzip(t *testing.T) {
	payload := []byte("lazy release persistency")
	body := deflate(t, payload, flate.DefaultCompression)
	trailer := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
	trailer = binary.LittleEndian.AppendUint32(trailer, uint32(len(payload)))
	// member builds a member with header flags flg and the given
	// optional fields; hcrc adds the header CRC16, off by bad.
	member := func(flg byte, extra, name, comment []byte, hcrc bool, bad uint16) []byte {
		h := []byte{0x1f, 0x8b, 8, flg, 0, 0, 0, 0, 0, 255}
		if hcrc {
			h[3] |= 1 << 1
		}
		if extra != nil {
			h = binary.LittleEndian.AppendUint16(h, uint16(len(extra)))
			h = append(h, extra...)
		}
		h = append(h, name...)
		h = append(h, comment...)
		if hcrc {
			h = binary.LittleEndian.AppendUint16(h, uint16(crc32.ChecksumIEEE(h))+bad)
		}
		return append(append(h, body...), trailer...)
	}
	str := func(n int) []byte { return append(bytes.Repeat([]byte{'n'}, n), 0) }
	plain := member(0, nil, nil, nil, false, 0)
	cases := map[string][]byte{
		"plain":          plain,
		"ftext":          member(1, nil, nil, nil, false, 0),
		"fhcrc":          member(0, nil, nil, nil, true, 0),
		"fhcrc-wrong":    member(0, nil, nil, nil, true, 1),
		"fextra":         member(1<<2, []byte("xyz"), nil, nil, false, 0),
		"fextra-empty":   member(1<<2, []byte{}, nil, nil, false, 0),
		"fname":          member(1<<3, nil, str(10), nil, false, 0),
		"fname-511":      member(1<<3, nil, str(511), nil, false, 0),
		"fname-512":      member(1<<3, nil, str(512), nil, false, 0),
		"fcomment":       member(1<<4, nil, nil, str(20), false, 0),
		"all-flags":      member(0x1f, []byte("e"), str(3), str(4), true, 0),
		"all-flags-bad":  member(0x1f, []byte("e"), str(3), str(4), true, 7),
		"reserved-bits":  member(0xe0, nil, nil, nil, false, 0),
		"bad-magic":      append([]byte{0x1f, 0x8c}, plain[2:]...),
		"bad-method":     append([]byte{0x1f, 0x8b, 7}, plain[3:]...),
		"bad-crc":        append(bytes.Clone(plain[:len(plain)-8]), append([]byte{1, 2, 3, 4}, trailer[4:]...)...),
		"bad-isize":      append(bytes.Clone(plain[:len(plain)-4]), 0, 0, 0, 1),
		"cut-trailer":    plain[:len(plain)-3],
		"cut-header":     plain[:5],
		"cut-name":       member(1<<3, nil, str(10), nil, false, 0)[:15],
		"empty":          {},
		"second-member":  append(bytes.Clone(plain), plain...),
		"trailing-bytes": append(bytes.Clone(plain), 1, 2, 3),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			want, werr := gunzipStd(b)
			got, err := gunzipKernel(b)
			if (err == nil) != (werr == nil) {
				t.Fatalf("kernel err %v, compress/gzip err %v", err, werr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("kernel returned %q, compress/gzip %q", got, want)
			}
			for _, e := range []error{gzip.ErrHeader, gzip.ErrChecksum, io.EOF, io.ErrUnexpectedEOF} {
				if errors.Is(werr, e) != errors.Is(err, e) {
					t.Fatalf("kernel err %v, compress/gzip err %v", err, werr)
				}
			}
		})
	}
}
