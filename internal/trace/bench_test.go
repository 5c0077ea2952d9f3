package trace

import (
	"bytes"
	"compress/flate"
	"io"
	"testing"

	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/workload"
)

// BenchmarkTraceDecode times the trace codec alone: ReadInfo decodes and
// verifies, without building a machine, the kv trace e2ebench's
// replay-kv workload replays (recorded under NOP on 16 cores: 8
// threads, 4096 keys, 200 ops per thread, seed 7). The recording is made
// outside the timer. ns/traceop is per decoded memory op.
func BenchmarkTraceDecode(b *testing.B) {
	cfg := memsys.DefaultConfig()
	cfg.Mechanism = mech.NOP
	cfg.Cores = 16
	spec := workload.Spec{Structure: "kv", Threads: 8, InitialSize: 4096, OpsPerThread: 200, Seed: 7}
	var buf bytes.Buffer
	_, _, sum, err := Record(cfg, spec, &buf)
	if err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := ReadInfo(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if in.Ops != sum.Ops || in.Checksum != sum.Checksum {
			b.Fatalf("decoded %d ops checksum %08x, recorded %d ops checksum %08x", in.Ops, in.Checksum, sum.Ops, sum.Checksum)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(sum.Ops)), "ns/traceop")
}

// BenchmarkInflate times the DEFLATE kernel against compress/flate on
// the kv trace's record body, as compress/gzip's writer compresses it
// (the trace writer's default level), in MB/s of decompressed output.
func BenchmarkInflate(b *testing.B) {
	_, body := kvTrace(b)
	z := deflate(b, body, flate.DefaultCompression)
	for _, c := range []struct {
		name string
		open func(io.Reader) io.Reader
	}{
		{"kernel", func(r io.Reader) io.Reader { return newInflater(r) }},
		{"flate", func(r io.Reader) io.Reader { return flate.NewReader(r) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := io.Copy(io.Discard, c.open(bytes.NewReader(z)))
				if err != nil || n != int64(len(body)) {
					b.Fatalf("decoded %d of %d bytes: %v", n, len(body), err)
				}
			}
		})
	}
}
