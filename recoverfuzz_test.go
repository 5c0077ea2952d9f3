package lrp

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"lrp/internal/isa"
	"lrp/internal/lfds"
)

// corruptBase is a finished LRP run's final image, the Recoverable bound
// to its anchors, and the image's nonzero words in address order.
type corruptBase struct {
	rec   Recoverable
	img   *Image
	words []isa.Addr
}

// corruptBases builds one base per workload, once per test binary.
var corruptBases = sync.OnceValue(func() []corruptBase {
	var out []corruptBase
	for _, structure := range WorkloadNames() {
		cfg := DefaultConfig().WithMechanism(LRP)
		cfg.Cores = 4
		cfg.TrackHB = true // keeps the persist log the word list is read from
		_, m, rec, err := RunRecoverableWorkload(cfg, Spec{
			Structure: structure, Threads: 2, InitialSize: 24, OpsPerThread: 12, Seed: 1,
		})
		if err != nil {
			panic(fmt.Sprintf("%s: %v", structure, err))
		}
		img := m.NVM().FinalImage(nil)
		seen := map[isa.Addr]bool{}
		var words []isa.Addr
		for _, e := range m.NVM().Events() {
			for i := range e.Words {
				a := e.Line + isa.Addr(8*i)
				if !seen[a] && img.Read(a) != 0 {
					seen[a] = true
					words = append(words, a)
				}
			}
		}
		slices.Sort(words)
		out = append(out, corruptBase{rec: rec, img: img, words: words})
	}
	return out
})

// Edit kinds: each edit overwrites one nonzero word of the base image.
const (
	editRaw        = iota // the fuzzer's value
	editMisaligned        // another word's value with bit 2 set: a misaligned pointer
	editCopy              // another word's value: back-edges to the head or any node
	editZero              // zero: a link or field that never persisted
)

// FuzzRecoverCorruptImage walks a copy of a real run's final image — one
// per workload — with the structure's Recover, overwrites fuzzer-chosen
// nonzero words of that same copy, and walks it again. However damaged
// the image, the walk must return without panicking, and its report must
// be coherent: Err is the first quarantined finding when there is one,
// nil exactly when the report is Clean, and Clean implies nothing was
// quarantined. An unedited image must recover clean. The second walk
// re-walks only the units the edits touched; it must equal a full walk
// of a clone of the edited image.
//
//	go test -run '^$' -fuzz FuzzRecoverCorruptImage -fuzztime 30s .
//
// edits is a sequence of 11-byte records: kind, a little-endian 16-bit
// word index, and a little-endian 64-bit value (the raw value, or the
// index of the word a copy reads from).
func FuzzRecoverCorruptImage(f *testing.F) {
	edit := func(kind byte, word uint16, v uint64) []byte {
		b := []byte{kind, byte(word), byte(word >> 8)}
		return binary.LittleEndian.AppendUint64(b, v)
	}
	for s := range corruptBases() {
		f.Add(uint8(s), []byte(nil))
		f.Add(uint8(s), edit(editMisaligned, 0, 0))
		f.Add(uint8(s), slices.Concat(edit(editCopy, 3, 0), edit(editCopy, 9, 1)))
		f.Add(uint8(s), slices.Concat(edit(editZero, 1, 0), edit(editZero, 5, 0), edit(editRaw, 7, 0x10000004)))
		f.Add(uint8(s), edit(editRaw, 2, 1))
	}
	f.Fuzz(func(t *testing.T, which uint8, edits []byte) {
		bases := corruptBases()
		base := bases[int(which)%len(bases)]
		n := len(base.words)
		img := base.img.Clone()
		// A cycle is walked until the step bound; keep that cheap. No
		// chain of these small runs comes near the lowered bound.
		old := lfds.WalkStepBound
		lfds.WalkStepBound = 1 << 12
		defer func() { lfds.WalkStepBound = old }()

		base.rec.Recover(img)
		for ; len(edits) >= 11; edits = edits[11:] {
			at := base.words[int(binary.LittleEndian.Uint16(edits[1:]))%n]
			v := binary.LittleEndian.Uint64(edits[3:])
			from := base.words[v%uint64(n)]
			switch edits[0] % 4 {
			case editRaw:
				img.Write(at, v)
			case editMisaligned:
				img.Write(at, base.img.Read(from)|4)
			case editCopy:
				img.Write(at, base.img.Read(from))
			case editZero:
				img.Write(at, 0)
			}
		}
		rep := base.rec.Recover(img)
		name := base.rec.Name()
		if full := base.rec.Recover(img.Clone()); !reflect.DeepEqual(rep, full) {
			t.Fatalf("%s: walk after the edits %v, full walk of a clone %v", name, rep, full)
		}
		if len(rep.Quarantined) > 0 && rep.Err() != rep.Quarantined[0] {
			t.Fatalf("%s: Err() = %v, want the first quarantined finding %v", name, rep.Err(), rep.Quarantined[0])
		}
		if rep.Clean() != (rep.Err() == nil) {
			t.Fatalf("%s: Clean() = %v but Err() = %v", name, rep.Clean(), rep.Err())
		}
		if rep.Clean() && len(rep.Quarantined) > 0 {
			t.Fatalf("%s: clean report quarantined %v", name, rep.Quarantined)
		}
		if img.Equal(base.img) && !rep.Clean() {
			t.Fatalf("%s: unedited final image did not recover clean: %v", name, rep.Err())
		}
	})
}
