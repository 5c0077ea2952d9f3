package mech

import (
	"fmt"
	"strings"
)

// Kind names a registered persistency mechanism. Values index the
// registration table and are assigned in registration order; a Kind is
// field 0 of a trace header, so the table only ever grows at its end.
type Kind int

// Spec is one registration: the mechanism's name, the flags the
// experiment layer chooses columns and sweeps by, and its constructor.
type Spec struct {
	// Name is the canonical spelling, as parsed and printed.
	Name string
	// EnforcesRP marks mechanisms that guarantee the consistent-cut
	// property required for null recovery.
	EnforcesRP bool
	// Headline marks the mechanisms the overhead figures foreground
	// (Fig 6/8 and the size study compare these against NOP).
	Headline bool
	// Baseline marks the no-persistency reference point (NOP): it is
	// the normalization denominator and is excluded from fault sweeps.
	Baseline bool
	// New builds the mechanism over a machine's SystemView.
	New func(SystemView) Mechanism
}

var specs []Spec

// Register adds a mechanism to the table and returns its Kind. It runs
// from the var block below, so the table is complete before any main or
// test body runs. A missing name or constructor, or a duplicate name,
// panics.
func Register(s Spec) Kind {
	if s.Name == "" || s.New == nil {
		panic(fmt.Sprintf("mech: incomplete registration %+v", s))
	}
	for _, r := range specs {
		if r.Name == s.Name {
			panic(fmt.Sprintf("mech: mechanism %q registered twice", s.Name))
		}
	}
	specs = append(specs, s)
	return Kind(len(specs) - 1)
}

// The registered mechanisms: the paper's five (§6.2), then the
// extensions. Go initializes these in declaration order, which fixes
// their numbers (NOP=0 … FliT-SB=6) and so the trace header's field 0.
var (
	// NOP is volatile execution: no persistency guarantees.
	NOP = Register(Spec{Name: "NOP", Baseline: true, New: newNOP})
	// SB enforces RP with strict full barriers around every release.
	SB = Register(Spec{Name: "SB", EnforcesRP: true, New: newSB})
	// BB enforces RP with the state-of-the-art buffered full barrier
	// (epoch tags + proactive flushing; Joshi et al., MICRO'15).
	BB = Register(Spec{Name: "BB", EnforcesRP: true, Headline: true, New: newBB})
	// ARP is the acquire-release persistency of Kolli et al. (ISCA'17):
	// one-sided, persist-buffer-based — and, as the paper shows, too
	// weak to recover a log-free data structure.
	ARP = Register(Spec{Name: "ARP", New: newARP})
	// LRP is the paper's lazy release persistency mechanism.
	LRP = Register(Spec{Name: "LRP", EnforcesRP: true, Headline: true, New: newLRP})
	// EADR models an eADR/extended-ADR platform: the caches are inside
	// the persistence domain, so every acked store is durable with no
	// flushes or ordering stalls — the upper-bound baseline the paper's
	// successors compare persistency mechanisms against.
	EADR = Register(Spec{Name: "eADR", EnforcesRP: true, Headline: true, New: newEADR})
	// FliTSB is a FliT-inspired strict baseline (Wei et al., PPoPP'22):
	// SB's synchronous-release discipline with software per-line dirty
	// tracking that skips the flush of clean lines.
	FliTSB = Register(Spec{Name: "FliT-SB", EnforcesRP: true, Headline: true, New: newFliTSB})
)

// Kinds lists every registered mechanism in registration order. The
// slice is a copy; callers may reorder or filter it.
func Kinds() []Kind {
	out := make([]Kind, len(specs))
	for i := range specs {
		out[i] = Kind(i)
	}
	return out
}

// KindNames lists every registered name in registration order.
func KindNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ParseKind converts a mechanism name (as printed by String) to a Kind.
// The error lists every registered name, so CLI messages cannot fall
// out of step with the table.
func ParseKind(s string) (Kind, error) {
	for i, spec := range specs {
		if spec.Name == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("mech: unknown mechanism %q (valid: %s)",
		s, strings.Join(KindNames(), ", "))
}

// Valid reports whether k is a registered mechanism.
func (k Kind) Valid() bool { return k >= 0 && int(k) < len(specs) }

// Spec returns k's registration (the zero Spec if k is not registered).
func (k Kind) Spec() Spec {
	if !k.Valid() {
		return Spec{}
	}
	return specs[k]
}

func (k Kind) String() string {
	if !k.Valid() {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return specs[k].Name
}

// EnforcesRP reports whether the mechanism guarantees the consistent-cut
// property required for null recovery.
func (k Kind) EnforcesRP() bool { return k.Spec().EnforcesRP }

// Headline reports whether the overhead figures foreground the mechanism.
func (k Kind) Headline() bool { return k.Spec().Headline }

// Baseline reports whether the mechanism is the no-persistency reference.
func (k Kind) Baseline() bool { return k.Spec().Baseline }

// New builds mechanism k over sv. Unregistered kinds panic:
// Config.Validate rejects them long before a machine is assembled.
func New(k Kind, sv SystemView) Mechanism {
	if !k.Valid() {
		panic(fmt.Sprintf("mech: unknown mechanism %v", k))
	}
	return specs[k].New(sv)
}
