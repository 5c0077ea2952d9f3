package mech

import (
	"fmt"

	"lrp/internal/persist"
)

// Kinds registered by this package, beyond the five canonical ones
// package persist declares. Var initialization order (these first, the
// registry table in init after) keeps Kind numbering deterministic:
// eADR=5, FliT-SB=6.
var (
	// EADR models an eADR/extended-ADR platform: the caches are inside
	// the persistence domain, so every acked store is durable with no
	// flushes or ordering stalls — the upper-bound baseline the paper's
	// successors compare persistency mechanisms against.
	EADR = persist.Register(persist.KindSpec{Name: "eADR", EnforcesRP: true, Headline: true})
	// FliTSB is a FliT-inspired strict baseline (Wei et al., PPoPP'22):
	// SB's synchronous-release discipline with software per-line dirty
	// tracking that skips the flush of clean lines.
	FliTSB = persist.Register(persist.KindSpec{Name: "FliT-SB", EnforcesRP: true, Headline: true})
)

// Info is one registry entry: the Kind and the constructor the machine
// calls at build time.
type Info struct {
	Kind persist.Kind
	New  func(SystemView) Mechanism
}

var registry []Info

// registerMech appends one constructor; the table parallels the
// persist.Kind table and registerAll keeps them in the same order.
func registerMech(in Info) {
	if in.New == nil {
		panic(fmt.Sprintf("mech: %v registered without a constructor", in.Kind))
	}
	for _, r := range registry {
		if r.Kind == in.Kind {
			panic(fmt.Sprintf("mech: %v registered twice", in.Kind))
		}
	}
	registry = append(registry, in)
}

func init() {
	registerMech(Info{persist.NOP, newNOP})
	registerMech(Info{persist.SB, newSB})
	registerMech(Info{persist.BB, newBB})
	registerMech(Info{persist.ARP, newARP})
	registerMech(Info{persist.LRP, newLRP})
	registerMech(Info{EADR, newEADR})
	registerMech(Info{FliTSB, newFliTSB})
}

// Lookup returns k's registry entry.
func Lookup(k persist.Kind) (Info, bool) {
	for _, r := range registry {
		if r.Kind == k {
			return r, true
		}
	}
	return Info{}, false
}

// Known reports whether k has a registered constructor.
func Known(k persist.Kind) bool {
	_, ok := Lookup(k)
	return ok
}

// New builds mechanism k over sv. Unknown kinds panic: Config.Validate
// rejects them long before a machine is assembled.
func New(k persist.Kind, sv SystemView) Mechanism {
	in, ok := Lookup(k)
	if !ok {
		panic(fmt.Sprintf("mech: unknown mechanism %v", k))
	}
	return in.New(sv)
}
