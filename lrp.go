// Package lrp is a simulation-backed reproduction of "Lazy Release
// Persistency" (Dananjaya, Gavrielatos, Joshi, Nagarajan — ASPLOS 2020):
// a complete simulated multicore with private L1 caches, a banked NUCA
// LLC with a full-map MESI directory, and PCM-like NVM, on which a
// registry of persistency enforcement mechanisms (the paper's NOP, SB,
// BB, ARP, LRP plus the eADR and FliT-SB extensions) runs five
// log-free data structures (Harris linked list, Michael hash map,
// lock-free external BST, lock-free skip list, Michael–Scott queue).
//
// The package offers three levels of use:
//
//   - Experiments: Fig5/Fig6/Fig7/Fig8/SizeSensitivity regenerate the
//     paper's figures as formatted tables (see EXPERIMENTS.md for the
//     paper-vs-measured record).
//
//   - Workloads: RunWorkload executes one §6.1-style workload on a
//     configured machine and reports execution time and persistency
//     counters.
//
//   - Programs: NewMachine plus Machine.Run execute arbitrary simulated
//     programs against the memory system, with full crash analysis —
//     Crash reconstructs the exact NVM image at any instant and checks
//     the consistent-cut criterion that null recovery requires.
package lrp

import (
	"lrp/internal/engine"
	"lrp/internal/isa"
	"lrp/internal/lfds"
	"lrp/internal/mech"
	"lrp/internal/memsys"
	"lrp/internal/mm"
	"lrp/internal/model"
	"lrp/internal/recovery"
	"lrp/internal/stats"
	"lrp/internal/workload"

	// Registers the kv service workload with the workload registry.
	_ "lrp/internal/kv"
)

// Core machine types (aliases into the implementation packages; external
// code uses them through this package).
type (
	// Time is a point in virtual time, in processor cycles.
	Time = engine.Time
	// Addr is a simulated physical byte address.
	Addr = isa.Addr
	// Ordering is a consistency annotation (Plain/Acquire/Release/AcqRel).
	Ordering = isa.Ordering
	// Config describes the simulated machine (Table 1 by default).
	Config = memsys.Config
	// Machine is the assembled simulated system.
	Machine = memsys.System
	// Ctx is a simulated hardware thread's handle to the machine.
	Ctx = memsys.Ctx
	// Program is the body of one simulated thread.
	Program = memsys.Program
	// Mechanism names a persistency enforcement approach.
	Mechanism = mech.Kind
	// Spec describes one workload run (§6.1 parameters).
	Spec = workload.Spec
	// Result is a measured workload window.
	Result = workload.Result
	// Violation is one consistent-cut violation found at a crash point.
	Violation = model.Violation
	// Set is the common interface of the keyed log-free structures.
	Set = lfds.Set
	// Image is a durable (or architectural) memory image.
	Image = mm.Memory
	// Table is a formatted result table.
	Table = stats.Table
)

// Ordering annotations.
const (
	Plain   = isa.Plain
	Acquire = isa.Acquire
	Release = isa.Release
	AcqRel  = isa.AcqRel
)

// The registered mechanisms, all from package mech's one registration
// table: the five of §6.2 plus the eADR and FliT-SB extensions.
// Registering a mechanism there adds it to Mechanisms, MechanismNames
// and ParseMechanism; a named var here is only a convenience.
var (
	NOP = mech.NOP
	SB  = mech.SB
	BB  = mech.BB
	ARP = mech.ARP
	LRP = mech.LRP

	EADR   = mech.EADR
	FliTSB = mech.FliTSB
)

// Mechanisms lists all registered mechanisms in registration
// (presentation) order.
func Mechanisms() []Mechanism { return mech.Kinds() }

// MechanismNames lists the registered mechanism names, parseable by
// ParseMechanism, in the same order as Mechanisms.
func MechanismNames() []string { return mech.KindNames() }

// Structures lists the five workloads in the paper's order.
var Structures = workload.Structures

// WorkloadNames lists every registered workload (the five paper
// structures plus service workloads such as kv), in registration order.
func WorkloadNames() []string { return workload.Names() }

// KVParams parameterizes the kv service workload (see Spec.KV).
type KVParams = workload.KVParams

// DefaultConfig mirrors Table 1 of the paper (64 cores, 32KB L1, 64MB
// NUCA LLC, PCM at 120/350 cycles, 32-entry RET).
func DefaultConfig() Config { return memsys.DefaultConfig() }

// ParseMechanism converts a registered mechanism name (see
// MechanismNames: "NOP", "SB", …, "eADR", "FliT-SB") to a Mechanism.
func ParseMechanism(s string) (Mechanism, error) { return mech.ParseKind(s) }

// NewMachine builds a simulated machine. Set cfg.TrackHB to enable crash
// analysis (happens-before tracking plus the NVM persist event log).
func NewMachine(cfg Config) (*Machine, error) { return memsys.New(cfg) }

// RunWorkload executes one workload on a fresh machine and returns the
// measured window plus the machine for further inspection.
func RunWorkload(cfg Config, spec Spec) (*Result, *Machine, error) {
	return workload.Run(cfg, spec)
}

// --- data-structure constructors -------------------------------------------

// NewLinkedList anchors a Harris lock-free sorted linked list.
// api:keep — public structure constructor (README's library example).
func NewLinkedList(m *Machine) *lfds.LinkedList { return lfds.NewLinkedList(m) }

// NewHashMap anchors a Michael lock-free hash table with nbuckets buckets.
// api:keep — public structure constructor, one family with NewLinkedList.
func NewHashMap(m *Machine, nbuckets int) *lfds.HashMap { return lfds.NewHashMap(m, nbuckets) }

// NewBST anchors a lock-free external BST; call Init from a Ctx once.
func NewBST(m *Machine) *lfds.BST { return lfds.NewBST(m) }

// NewSkipList anchors a lock-free skip list.
// api:keep — public structure constructor, one family with NewLinkedList.
func NewSkipList(m *Machine) *lfds.SkipList { return lfds.NewSkipList(m) }

// NewQueue anchors a Michael–Scott queue; call Init from a Ctx once.
// api:keep — public structure constructor, one family with NewLinkedList.
func NewQueue(m *Machine) *lfds.Queue { return lfds.NewQueue(m) }

// DefaultVal is the value-integrity convention: the value stored with
// key k is 2k+1; every structure's Recover verifies it.
func DefaultVal(key uint64) uint64 { return recovery.DefaultVal(key) }
