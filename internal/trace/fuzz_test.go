package trace

import (
	"bytes"
	"testing"

	"lrp/internal/isa"
	"lrp/internal/mech"
	"lrp/internal/workload"

	// Registers the kv workload so its traces can seed the fuzzer.
	_ "lrp/internal/kv"
)

// FuzzTraceDecode hardens the trace decoder: arbitrary bytes — and
// mutations of real traces — must either decode cleanly or fail with an
// error. No input may panic, hang, or provoke a huge allocation.
func FuzzTraceDecode(f *testing.F) {
	cfg := testConfig(mech.LRP)
	spec := workload.Spec{
		Structure: "hashmap", Threads: 2, InitialSize: 16, OpsPerThread: 8, Seed: 7,
	}
	var buf bytes.Buffer
	if _, _, _, err := Record(cfg, spec, &buf); err != nil {
		f.Fatalf("seed trace: %v", err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:11])
	trunc := bytes.Clone(raw)
	trunc[len(magic)] = Version + 1
	f.Add(trunc)
	flip := bytes.Clone(raw)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	f.Add([]byte(magic))
	f.Add([]byte("LRPTRC\x01\xff\xff\xff\xff"))
	f.Add([]byte{})

	// A kv trace with op-history records seeds the kv header extension
	// and the post-OpDequeue history kinds (get/set/cas/scan, CAS
	// expected-value carriage).
	kvSpec := workload.Spec{
		Structure: "kv", Threads: 2, InitialSize: 32, OpsPerThread: 16, Seed: 7,
	}
	var kvBuf bytes.Buffer
	if _, _, _, _, _, err := RecordHistory(cfg, kvSpec, &kvBuf); err != nil {
		f.Fatalf("kv seed trace: %v", err)
	}
	kvRaw := kvBuf.Bytes()
	f.Add(kvRaw)
	f.Add(kvRaw[:len(kvRaw)/2])
	kvFlip := bytes.Clone(kvRaw)
	kvFlip[len(kvFlip)/3] ^= 0x08
	f.Add(kvFlip)

	// The longest record a trace can hold, a result footer with two full
	// vectors of ten-byte values; a trace with a byte after its end
	// record; and one followed by an empty gzip member.
	var maxBuf bytes.Buffer
	w, err := NewWriter(&maxBuf, HeaderFor(cfg, spec))
	if err != nil {
		f.Fatal(err)
	}
	w.RecordOp(0, 1, isa.StoreOp(64, 1), 0, true)
	w.SetResult(maxResult())
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(maxBuf.Bytes())
	head, member := splitTrace(f, raw)
	f.Add(append(bytes.Clone(head), gzipped(f, append(gunzip(f, member), recSync))...))
	f.Add(append(bytes.Clone(raw), gzipped(f, nil)...))

	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return
		}
		// Every record consumes at least one decompressed byte, so the
		// loop terminates; the cap is a belt against decoder bugs only.
		for i := 0; i < 1<<22; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
		t.Fatalf("decoder did not terminate within %d records", 1<<22)
	})
}
