package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"lrp/internal/fault"
	"lrp/internal/memsys"
	"lrp/internal/persist"
	"lrp/internal/workload"
)

func testConfig(k persist.Kind) memsys.Config {
	cfg := memsys.TestConfig(4)
	cfg.Mechanism = k
	// Tracking is a replay-side option; keep the recording machine lean.
	cfg.TrackHB = false
	return cfg
}

func testSpec(structure string) workload.Spec {
	return workload.Spec{
		Structure:    structure,
		Threads:      2,
		InitialSize:  48,
		OpsPerThread: 30,
		Seed:         7,
	}
}

// record captures one run and returns the trace bytes plus the live
// result and summary.
func record(t *testing.T, k persist.Kind, structure string) ([]byte, *workload.Result, Summary) {
	t.Helper()
	var buf bytes.Buffer
	res, _, sum, err := Record(testConfig(k), testSpec(structure), &buf)
	if err != nil {
		t.Fatalf("Record(%v, %s): %v", k, structure, err)
	}
	return buf.Bytes(), res, sum
}

// TestHeaderRoundTrip pins the header codec: every captured field must
// survive encode→decode exactly.
func TestHeaderRoundTrip(t *testing.T) {
	cfg := testConfig(persist.LRP)
	spec := testSpec("hashmap")
	spec.ReadPct = 30
	spec.Buckets = 12
	spec.OpWork = 150
	spec.Seed = 0xdeadbeefcafe
	h := HeaderFor(cfg, spec)
	got, err := parseHeader(appendHeader(nil, h))
	if err != nil {
		t.Fatalf("parseHeader: %v", err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("header round trip:\n got %+v\nwant %+v", got, h)
	}
}

// TestHeaderCapturesConfig guards against memsys.Config growing a field
// the codec silently drops: the decoded machine config must equal the
// original with exactly the documented non-captured fields zeroed.
func TestHeaderCapturesConfig(t *testing.T) {
	cfg := memsys.TestConfig(4)
	cfg.Mechanism = persist.BB
	h := HeaderFor(cfg, testSpec("queue"))
	got, err := parseHeader(appendHeader(nil, h))
	if err != nil {
		t.Fatalf("parseHeader: %v", err)
	}
	want := cfg
	want.Obs = nil
	want.Rec = nil
	want.TrackHB = false
	want.Faults = fault.Config{}
	if !reflect.DeepEqual(got.Config, want) {
		t.Fatalf("a memsys.Config field is lost in the trace header codec:\n got %+v\nwant %+v\n"+
			"(new Config fields must be added to appendHeader/parseHeader, or documented as non-captured)",
			got.Config, want)
	}
	if got.MachineConfig(persist.LRP).Mechanism != persist.LRP {
		t.Fatal("MachineConfig does not apply the mechanism override")
	}
}

// TestRecordReplaySameMechanism is the core equivalence property: for
// every mechanism, replaying a trace under the mechanism it was
// recorded with reproduces the live run's measured window byte-for-byte
// (every counter), and re-recording the replay yields an identical op
// stream.
func TestRecordReplaySameMechanism(t *testing.T) {
	for _, k := range persist.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			raw, live, sum := record(t, k, "hashmap")
			if sum.Ops == 0 || sum.Records < sum.Ops {
				t.Fatalf("implausible summary %+v", sum)
			}

			var re bytes.Buffer
			w2, err := NewWriter(&re, HeaderFor(testConfig(k), testSpec("hashmap")))
			if err != nil {
				t.Fatalf("NewWriter: %v", err)
			}
			rp, err := Replay(bytes.NewReader(raw), ReplayOpts{Rec: w2})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if rp.Checksum != sum.Checksum {
				t.Fatalf("replay verified checksum %08x, recorded %08x", rp.Checksum, sum.Checksum)
			}
			if err := rp.VerifyEmbedded(); err != nil {
				t.Fatalf("replay does not reproduce the live window: %v", err)
			}
			if !reflect.DeepEqual(rp.Result, live) {
				t.Fatalf("replayed result:\n got %+v\nwant %+v", rp.Result, live)
			}
			w2.SetResult(EmbedResult(rp.Result))
			if err := w2.Close(); err != nil {
				t.Fatalf("closing re-record: %v", err)
			}
			if got := w2.Summary().Checksum; got != sum.Checksum {
				t.Fatalf("re-recorded checksum %08x, want %08x", got, sum.Checksum)
			}
			if err := Diff(bytes.NewReader(raw), bytes.NewReader(re.Bytes())); err != nil {
				t.Fatalf("re-recorded trace differs: %v", err)
			}
		})
	}
}

// TestCrossMechanismReplay is the paper's methodology: one trace
// recorded under NOP replays under all five mechanisms from the
// identical op stream — asserted by re-recording each replay and
// checking the stream checksum is unchanged.
func TestCrossMechanismReplay(t *testing.T) {
	raw, _, sum := record(t, persist.NOP, "queue")
	times := map[persist.Kind]int64{}
	for _, k := range persist.Kinds() {
		cfg := testConfig(k)
		var re bytes.Buffer
		w2, err := NewWriter(&re, HeaderFor(cfg, testSpec("queue")))
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		rp, err := Replay(bytes.NewReader(raw), ReplayOpts{
			Mechanism: k, MechanismSet: true, Rec: w2,
		})
		if err != nil {
			t.Fatalf("replay under %v: %v", k, err)
		}
		if rp.Mechanism != k {
			t.Fatalf("replayed under %v, want %v", rp.Mechanism, k)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("closing re-record under %v: %v", k, err)
		}
		if got := w2.Summary().Checksum; got != sum.Checksum {
			t.Errorf("%v: re-recorded checksum %08x, source %08x — op stream not mechanism-invariant",
				k, got, sum.Checksum)
		}
		if rp.Result == nil {
			t.Fatalf("%v: no window result", k)
		}
		times[k] = int64(rp.Result.ExecTime)
	}
	// Same op stream, different timing: enforcing mechanisms must not be
	// faster than volatile execution on the identical schedule.
	for _, k := range []persist.Kind{persist.SB, persist.BB, persist.ARP, persist.LRP} {
		if times[k] < times[persist.NOP] {
			t.Errorf("%v replay (%d cycles) faster than NOP (%d) on the same op stream",
				k, times[k], times[persist.NOP])
		}
	}
}

// TestReplayDeterministic: replaying the same trace twice gives
// deep-equal results (the replayer holds no hidden state).
func TestReplayDeterministic(t *testing.T) {
	raw, _, _ := record(t, persist.LRP, "linkedlist")
	a, err := Replay(bytes.NewReader(raw), ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(bytes.NewReader(raw), ReplayOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result, b.Result) || a.Checksum != b.Checksum || a.Time != b.Time {
		t.Fatalf("two replays of one trace disagree:\n%+v\n%+v", a, b)
	}
}

// TestReadInfo checks the summary decoder against the writer's counts.
func TestReadInfo(t *testing.T) {
	raw, live, sum := record(t, persist.SB, "bstree")
	in, err := ReadInfo(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadInfo: %v", err)
	}
	if in.Ops != sum.Ops || in.Records != sum.Records || in.Checksum != sum.Checksum {
		t.Fatalf("info %+v does not match summary %+v", in, sum)
	}
	if in.Marks != 2 || in.Syncs == 0 {
		t.Fatalf("expected one window (2 marks) and ≥1 sync, got %+v", in)
	}
	if in.Embedded == nil {
		t.Fatal("no embedded result")
	}
	if err := in.Embedded.Matches(live); err != nil {
		t.Fatalf("embedded result does not match live run: %v", err)
	}
	if in.Header.Mechanism != persist.SB || in.Header.Spec.Structure != "bstree" {
		t.Fatalf("bad header %+v", in.Header)
	}
}

// TestDiffDetectsDifference: traces of different runs must differ.
func TestDiffDetectsDifference(t *testing.T) {
	a, _, _ := record(t, persist.NOP, "hashmap")
	b, _, _ := record(t, persist.NOP, "queue")
	if err := Diff(bytes.NewReader(a), bytes.NewReader(b)); err == nil {
		t.Fatal("Diff found two different runs equal")
	}
	if err := Diff(bytes.NewReader(a), bytes.NewReader(a)); err != nil {
		t.Fatalf("Diff found a trace unequal to itself: %v", err)
	}
}

// TestCorruptInputs: damaged traces must fail with errors, not panics,
// and never replay.
func TestCorruptInputs(t *testing.T) {
	raw, _, _ := record(t, persist.LRP, "hashmap")

	consume := func(b []byte) error {
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
	if err := consume(raw); err != nil {
		t.Fatalf("pristine trace rejected: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 7, 11, len(raw) / 2, len(raw) - 1} {
			if err := consume(raw[:cut]); err == nil {
				t.Errorf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("bitflips", func(t *testing.T) {
		flipped := 0
		for pos := 0; pos < len(raw); pos += 13 {
			mut := bytes.Clone(raw)
			mut[pos] ^= 0x40
			if err := consume(mut); err != nil {
				flipped++
			}
		}
		// Every header flip must be caught; body flips are protected by
		// the gzip CRC plus the stream checksum, so all must be caught
		// too. (A flip that gzip maps to identical output cannot exist.)
		if total := (len(raw) + 12) / 13; flipped != total {
			t.Errorf("%d of %d bit flips went undetected", total-flipped, total)
		}
	})
	t.Run("wrong-version", func(t *testing.T) {
		mut := bytes.Clone(raw)
		mut[len(magic)] = Version + 1
		if _, err := NewReader(bytes.NewReader(mut)); err == nil {
			t.Error("future version accepted")
		}
	})
	t.Run("wrong-magic", func(t *testing.T) {
		mut := bytes.Clone(raw)
		mut[0] = 'X'
		if _, err := NewReader(bytes.NewReader(mut)); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := NewReader(bytes.NewReader(nil)); err == nil {
			t.Error("empty input accepted")
		}
	})
}

// TestRecordRejectsFaultsAndRecorder: unrecordable configurations fail
// up front.
func TestRecordRejectsFaultsAndRecorder(t *testing.T) {
	cfg := testConfig(persist.LRP)
	cfg.Faults.TearProb = 0.5
	cfg.Faults.Seed = 1
	if _, _, _, err := Record(cfg, testSpec("hashmap"), io.Discard); err == nil {
		t.Error("Record accepted a faulty machine")
	}
	cfg = testConfig(persist.LRP)
	cfg.Rec = &Writer{}
	if _, _, _, err := Record(cfg, testSpec("hashmap"), io.Discard); err == nil {
		t.Error("Record accepted a pre-attached recorder")
	}
}
