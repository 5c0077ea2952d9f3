// Package trace is the record/replay subsystem: it captures a machine's
// memory-operation stream — every core's loads, stores and CASes, their
// op-work gaps, and the cross-core synchronization order the scheduler
// chose — into a versioned, CRC-checked, gzip-framed binary format, and
// replays such a trace directly against a fresh machine under any
// persistency mechanism.
//
// This reproduces the paper's trace-driven methodology: PRiME replays
// one fixed Pin-captured trace under each mechanism, so SB/BB/ARP/LRP
// are compared on the identical instruction stream. The execution-driven
// harness regenerates the interleaving per run — mechanism timing feeds
// back into the op order — whereas a replayed trace pins the op order
// (Invariant: the op stream is mechanism-independent, so re-recording a
// replay under any mechanism reproduces the original stream checksum)
// while clocks, stalls and persists evolve under the replayed mechanism.
//
// Format (TRACES.md has the byte-level specification):
//
//	"LRPTRC" | version | header len u32 | header varints | header CRC32
//	gzip( op/tick/sync/drain/mark records ... [result] end )
//
// Addresses are zigzag word-delta encoded per thread, work gaps are
// varints, and the end record carries the record count plus a CRC32 over
// the uncompressed op-stream bytes, so truncation and bit flips are
// detected without trusting the gzip framing alone.
package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"

	"lrp/internal/engine"
	"lrp/internal/fault"
	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/nvm"
	"lrp/internal/workload"
)

// Version is the trace-format version this package reads and writes.
const Version = 1

// magic leads every trace file.
const magic = "LRPTRC"

// Record type bytes. Values 0x00–0x0F encode an op record as
// kind | order<<2 (kind 3 is malformed: isa.Op.Validate rejects it);
// control records follow.
const (
	recTick   = 0x10
	recSync   = 0x11
	recDrain  = 0x12
	recMark   = 0x13
	recResult = 0x14
	recEnd    = 0x15
	// Op-history records carry the abstract data-structure operations
	// (insert/delete/contains/enqueue/dequeue) bracketing the memory ops,
	// for durable-linearizability checking. They are footer-class:
	// excluded from the op-stream checksum and record count, so a
	// history-carrying trace keeps the same stream identity as a plain
	// recording of the same execution.
	recOpBegin = 0x16
	recOpLin   = 0x17
	recOpEnd   = 0x18
)

// maxHeader bounds the header payload a reader will accept.
const maxHeader = 1 << 12

// maxWork bounds a single record's work gap (2^40 cycles ≈ 7 minutes of
// simulated time at 2.5GHz): large enough for any real trace, small
// enough that a corrupt varint cannot overflow replayed clocks.
const maxWork = 1 << 40

// RecType discriminates decoded records.
type RecType uint8

const (
	// RecOp is one memory operation (load/store/CAS).
	RecOp RecType = iota
	// RecTick is trailing compute not followed by an operation.
	RecTick
	// RecSync is a SyncClocks boundary.
	RecSync
	// RecDrain is a Drain boundary.
	RecDrain
	// RecMark is a harness phase marker.
	RecMark
	// RecResult is the embedded live-run window result footer.
	RecResult
	// RecEnd terminates the stream (count + checksum).
	RecEnd
)

func (t RecType) String() string {
	switch t {
	case RecOp:
		return "op"
	case RecTick:
		return "tick"
	case RecSync:
		return "sync"
	case RecDrain:
		return "drain"
	case RecMark:
		return "mark"
	case RecResult:
		return "result"
	case RecEnd:
		return "end"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Header describes the machine and workload a trace was captured from:
// everything needed to rebuild an identical machine (under any
// mechanism) and to reconstruct the measured window's Result.
type Header struct {
	// Version is the format version read from the file.
	Version uint8
	// Mechanism is the mechanism the trace was recorded under.
	Mechanism mech.Kind
	// Config is the captured machine configuration. Attachments (Obs,
	// Rec), fault injection and tracking flags are not captured.
	Config memsys.Config
	// Spec is the captured workload parameters.
	Spec workload.Spec
}

// HeaderFor captures cfg and spec into a trace header. Attachments
// (Obs, Rec), fault injection, and the tracking switch (TrackHB) are
// dropped: they never change the op stream, and the replayer chooses its
// own.
func HeaderFor(cfg memsys.Config, spec workload.Spec) Header {
	cfg.Obs = nil
	cfg.Rec = nil
	cfg.TrackHB = false
	cfg.Faults = fault.Config{}
	return Header{Version: Version, Mechanism: cfg.Mechanism, Config: cfg, Spec: spec}
}

// MachineConfig rebuilds the captured machine configuration under
// mechanism k, with no attachments.
func (h Header) MachineConfig(k mech.Kind) memsys.Config {
	cfg := h.Config
	cfg.Mechanism = k
	cfg.Obs = nil
	cfg.Rec = nil
	return cfg
}

// appendHeader encodes the header payload (without magic/version/length
// framing; the writer adds those).
func appendHeader(b []byte, h Header) []byte {
	c := h.Config
	u := func(v int64) {
		b = binary.AppendUvarint(b, uint64(v))
	}
	u(int64(h.Mechanism))
	u(int64(c.Cores))
	u(int64(c.L1Size))
	u(int64(c.L1Ways))
	u(int64(c.L1Lat))
	u(int64(c.LLCSize))
	u(int64(c.LLCWays))
	u(int64(c.LLCBanks))
	u(int64(c.LLCLat))
	u(int64(c.MeshDim))
	u(int64(c.HopLat))
	u(int64(c.NVM.Controllers))
	u(int64(c.NVM.Mode))
	u(int64(c.NVM.CachedLat))
	u(int64(c.NVM.UncachedLat))
	u(int64(c.NVM.CachedOcc))
	u(int64(c.NVM.UncachedOcc))
	u(int64(c.NVM.MaxRetries))
	u(int64(c.NVM.RetryBase))
	u(int64(c.RETSize))
	u(int64(c.RETWatermark))
	u(int64(c.EpochBits))
	u(int64(c.ARPBufferCap))
	u(int64(c.MaxPendingPersists))
	u(int64(c.IssueCost))
	s := h.Spec
	u(int64(len(s.Structure)))
	b = append(b, s.Structure...)
	u(int64(s.Threads))
	u(int64(s.InitialSize))
	u(int64(s.OpsPerThread))
	u(int64(s.ReadPct))
	u(int64(s.Buckets))
	u(int64(s.OpWork))
	b = binary.LittleEndian.AppendUint64(b, s.Seed)
	if s.Structure == "kv" {
		// Normalize before encoding: every field goes to the wire
		// concrete, and Normalized is idempotent, so a run from the
		// decoded header draws the identical request streams.
		b = appendKVParams(b, s.KV.Normalized(s.InitialSize))
	}
	return b
}

// kvSkewCode maps a skew name to its wire code (and back): names never
// hit the wire, so renames can't silently break old traces.
var kvSkewCode = map[string]uint64{
	workload.SkewUniform: 0,
	workload.SkewZipfian: 1,
	workload.SkewHotspot: 2,
}

// appendKVParams encodes the kv workload extension: 14 varints
// appended after the seed, present exactly when Structure is "kv", so
// every pre-kv trace remains byte-identical.
func appendKVParams(b []byte, p workload.KVParams) []byte {
	u := func(v int) {
		b = binary.AppendUvarint(b, uint64(v))
	}
	u(p.Tenants)
	u(p.KeysPerTenant)
	u(int(kvSkewCode[p.Skew]))
	u(p.ThetaMilli)
	u(p.HotKeyPct)
	u(p.HotOpPct)
	u(p.GetPct)
	u(p.SetPct)
	u(p.DelPct)
	u(p.CASPct)
	u(p.ScanPct)
	u(p.MinValWords)
	u(p.MaxValWords)
	u(p.ScanLen)
	return b
}

// parseHeader decodes a header payload, validating every field against
// the machine's structural limits so a corrupt header cannot provoke
// huge allocations or out-of-range indexing downstream.
func parseHeader(p []byte) (Header, error) {
	var h Header
	h.Version = Version
	pos := 0
	u := func() (uint64, error) {
		v, n := binary.Uvarint(p[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: truncated header")
		}
		pos += n
		return v, nil
	}
	fields := make([]uint64, 25)
	for i := range fields {
		v, err := u()
		if err != nil {
			return h, err
		}
		fields[i] = v
	}
	for i, v := range fields {
		if v > 1<<40 {
			return h, fmt.Errorf("trace: header field %d out of range (%d)", i, v)
		}
	}
	c := &h.Config
	h.Mechanism = mech.Kind(fields[0])
	if !h.Mechanism.Valid() {
		return h, fmt.Errorf("trace: bad mechanism %d in header", fields[0])
	}
	c.Mechanism = h.Mechanism
	c.Cores = int(fields[1])
	c.L1Size = int(fields[2])
	c.L1Ways = int(fields[3])
	c.L1Lat = engine.Time(fields[4])
	c.LLCSize = int(fields[5])
	c.LLCWays = int(fields[6])
	c.LLCBanks = int(fields[7])
	c.LLCLat = engine.Time(fields[8])
	c.MeshDim = int(fields[9])
	c.HopLat = engine.Time(fields[10])
	c.NVM.Controllers = int(fields[11])
	c.NVM.Mode = nvm.Mode(fields[12])
	c.NVM.CachedLat = engine.Time(fields[13])
	c.NVM.UncachedLat = engine.Time(fields[14])
	c.NVM.CachedOcc = engine.Time(fields[15])
	c.NVM.UncachedOcc = engine.Time(fields[16])
	c.NVM.MaxRetries = int(fields[17])
	c.NVM.RetryBase = engine.Time(fields[18])
	c.RETSize = int(fields[19])
	c.RETWatermark = int(fields[20])
	c.EpochBits = uint(fields[21])
	c.ARPBufferCap = int(fields[22])
	c.MaxPendingPersists = int(fields[23])
	c.IssueCost = engine.Time(fields[24])
	if err := c.Validate(); err != nil {
		return h, fmt.Errorf("trace: header config: %w", err)
	}
	slen, err := u()
	if err != nil {
		return h, err
	}
	if slen > 64 || pos+int(slen) > len(p) {
		return h, fmt.Errorf("trace: bad structure name length %d", slen)
	}
	h.Spec.Structure = string(p[pos : pos+int(slen)])
	pos += int(slen)
	sf := make([]uint64, 6)
	for i := range sf {
		v, err := u()
		if err != nil {
			return h, err
		}
		if v > 1<<40 {
			return h, fmt.Errorf("trace: spec field %d out of range (%d)", i, v)
		}
		sf[i] = v
	}
	h.Spec.Threads = int(sf[0])
	h.Spec.InitialSize = int(sf[1])
	h.Spec.OpsPerThread = int(sf[2])
	h.Spec.ReadPct = int(sf[3])
	h.Spec.Buckets = int(sf[4])
	h.Spec.OpWork = int(sf[5])
	if pos+8 > len(p) {
		return h, fmt.Errorf("trace: truncated header seed")
	}
	h.Spec.Seed = binary.LittleEndian.Uint64(p[pos:])
	pos += 8
	if h.Spec.Structure == "kv" {
		kf := make([]uint64, 14)
		for i := range kf {
			v, err := u()
			if err != nil {
				return h, err
			}
			if v > 1<<40 {
				return h, fmt.Errorf("trace: kv field %d out of range (%d)", i, v)
			}
			kf[i] = v
		}
		kv := &h.Spec.KV
		kv.Tenants = int(kf[0])
		kv.KeysPerTenant = int(kf[1])
		skew, ok := "", false
		for name, code := range kvSkewCode { // maprange:ok — codes are unique; at most one match
			if code == kf[2] {
				skew, ok = name, true
			}
		}
		if !ok {
			return h, fmt.Errorf("trace: bad kv skew code %d", kf[2])
		}
		kv.Skew = skew
		kv.ThetaMilli = int(kf[3])
		kv.HotKeyPct = int(kf[4])
		kv.HotOpPct = int(kf[5])
		kv.GetPct = int(kf[6])
		kv.SetPct = int(kf[7])
		kv.DelPct = int(kf[8])
		kv.CASPct = int(kf[9])
		kv.ScanPct = int(kf[10])
		kv.MinValWords = int(kf[11])
		kv.MaxValWords = int(kf[12])
		kv.ScanLen = int(kf[13])
	}
	if pos != len(p) {
		return h, fmt.Errorf("trace: %d trailing header bytes", len(p)-pos)
	}
	if err := h.Spec.Validate(); err != nil {
		return h, fmt.Errorf("trace: header spec: %w", err)
	}
	if h.Spec.Threads > c.Cores {
		return h, fmt.Errorf("trace: header spec uses %d threads on %d cores", h.Spec.Threads, c.Cores)
	}
	return h, nil
}

// EmbeddedResult is the live run's measured window as stored in the
// trace footer: the counter structs flattened to value vectors, so the
// codec survives field additions without renaming (a mismatch is a
// regeneration signal, not a decode crash).
type EmbeddedResult struct {
	ExecTime engine.Time
	Ops      uint64
	Sys      []uint64
	NVM      []uint64
}

// statsVec flattens a struct of uint64 counters into a value vector in
// field order (memsys.Stats and nvm.Stats are all-uint64 by contract).
func statsVec(s any) []uint64 {
	v := reflect.ValueOf(s)
	out := make([]uint64, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Uint()
	}
	return out
}

// EmbedResult flattens a live Result into its trace-footer form.
func EmbedResult(r *workload.Result) *EmbeddedResult {
	return &EmbeddedResult{
		ExecTime: r.ExecTime,
		Ops:      r.Ops,
		Sys:      statsVec(r.Sys),
		NVM:      statsVec(r.NVM),
	}
}

// Matches reports whether a replayed result reproduces the embedded one
// byte-for-byte (every counter, the op count and the window duration).
func (e *EmbeddedResult) Matches(r *workload.Result) error {
	if r == nil {
		return fmt.Errorf("trace: replay produced no windowed result")
	}
	if r.ExecTime != e.ExecTime {
		return fmt.Errorf("trace: exec time %v, recorded %v", r.ExecTime, e.ExecTime)
	}
	if r.Ops != e.Ops {
		return fmt.Errorf("trace: ops %d, recorded %d", r.Ops, e.Ops)
	}
	if err := vecMatches("memsys", statsVec(r.Sys), e.Sys); err != nil {
		return err
	}
	return vecMatches("nvm", statsVec(r.NVM), e.NVM)
}

func vecMatches(what string, got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("trace: %s counter vector has %d fields, trace has %d (regenerate the trace)",
			what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("trace: %s counter %d is %d, recorded %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// crcTab is the CRC32 polynomial table for the stream checksum.
var crcTab = crc32.MakeTable(crc32.IEEE)
