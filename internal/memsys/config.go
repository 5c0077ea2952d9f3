// Package memsys assembles the full simulated machine: cores with private
// L1 caches, a banked NUCA LLC with a full-map MESI directory, NVM
// controllers, and a pluggable persistency enforcement mechanism drawn
// from package mech's registry (the paper's five — NOP, SB, BB, ARP,
// LRP — plus any registered addition). Simulated programs — the
// log-free data structures in package lfds — execute against per-thread
// Ctx handles; a deterministic scheduler interleaves them in virtual-time
// order, so every run is exactly reproducible from its configuration.
package memsys

import (
	"fmt"

	"lrp/internal/engine"
	"lrp/internal/fault"
	"lrp/internal/mech"
	"lrp/internal/nvm"
	"lrp/internal/obs"
	"lrp/internal/perf"
)

// Config describes the simulated machine. DefaultConfig reproduces
// Table 1 of the paper.
type Config struct {
	// Cores is the number of single-threaded out-of-order cores (≤64).
	Cores int

	// L1Size/L1Ways size each private L1 data cache.
	L1Size int
	L1Ways int
	// L1Lat is the L1 hit latency.
	L1Lat engine.Time

	// LLCSize/LLCWays/LLCBanks size the shared NUCA LLC.
	LLCSize  int
	LLCWays  int
	LLCBanks int
	// LLCLat is the LLC bank access latency.
	LLCLat engine.Time

	// MeshDim is the side of the 2D mesh (MeshDim² tiles).
	MeshDim int
	// HopLat is the per-hop link latency of the mesh.
	HopLat engine.Time

	// NVM configures the persistent memory subsystem.
	NVM nvm.Config

	// Mechanism selects the persistency enforcement approach.
	Mechanism mech.Kind

	// RETSize and RETWatermark size the per-L1 Release Epoch Table.
	// The watermark is the occupancy at which the persist engine starts
	// draining the oldest release in the background. The paper fixes the
	// capacity at 32 but leaves the watermark as a design choice; a low
	// watermark keeps the population of unpersisted releases small, so
	// an acquire that does hit one (Invariant I2) waits behind a short
	// epoch chain. The watermark ablation bench sweeps this knob.
	RETSize      int
	RETWatermark int
	// EpochBits is the width of the per-thread epoch-id counter.
	EpochBits uint
	// ARPBufferCap bounds the per-thread ARP persist buffer (entries).
	ARPBufferCap int

	// MaxPendingPersists bounds each thread's outstanding (unacked)
	// persists. The persist engine's bookkeeping (and any real flush
	// queue) is finite: when the bound is reached, the next release
	// stalls until an ack retires. Without it, a hot line re-released
	// faster than the NVM ack latency accumulates unbounded ack debt
	// that some later acquire must pay at once.
	MaxPendingPersists int

	// IssueCost is the fixed pipeline cost charged per memory operation.
	IssueCost engine.Time

	// TrackHB enables happens-before tracking and the NVM persist event
	// log, which crash-consistency checking needs. Timing experiments
	// leave it off: it does not change timing, only memory footprint.
	TrackHB bool

	// Faults configures the deterministic fault-injection plane (torn
	// lines, transient NVM faults, persist-engine stalls). The zero value
	// injects nothing and reproduces the idealized machine. Injection is
	// part of the machine configuration — two runs with the same Config
	// (including Faults.Seed) are cycle-for-cycle identical.
	Faults fault.Config

	// Obs attaches the observability layer (metrics registry plus
	// optional cycle tracer) to every machine component. Nil disables
	// observability entirely; each hook site then costs one predicted
	// branch. Observability never changes simulated timing.
	Obs *obs.Observer

	// Rec attaches a memory-op stream recorder (package trace's binary
	// writer) that captures every operation in global execution order.
	// Nil disables recording; recording never changes simulated timing.
	Rec Recorder

	// Perf attaches the host-side phase profiler (package perf): scoped
	// regions in the scheduler, protocol, mechanism, persist-engine, NVM
	// and trace-I/O paths accumulate host wall time per phase. Nil
	// disables profiling; each hook site then costs one predicted
	// branch. Regions read host clocks only, never virtual time, so a
	// profiled run is cycle-for-cycle identical to an unprofiled one. A
	// Profiler must be attached to at most one machine at a time.
	Perf *perf.Profiler
}

// DefaultConfig mirrors Table 1: 64 OoO cores at 2.5GHz, 32KB 8-way L1
// (2 cycles), 64×1MB 16-way NUCA LLC (30 cycles), 2D mesh, directory
// MESI, PCM-like NVM at 120/350 cycles, 32-entry RET.
func DefaultConfig() Config {
	return Config{
		Cores:              64,
		L1Size:             32 << 10,
		L1Ways:             8,
		L1Lat:              2,
		LLCSize:            64 << 20,
		LLCWays:            16,
		LLCBanks:           64,
		LLCLat:             30,
		MeshDim:            8,
		HopLat:             1,
		NVM:                nvm.DefaultConfig(),
		Mechanism:          mech.LRP,
		RETSize:            32,
		RETWatermark:       8,
		EpochBits:          8,
		ARPBufferCap:       64,
		MaxPendingPersists: 16,
		IssueCost:          1,
	}
}

// TestConfig is a small machine for unit and property tests: few cores,
// tiny caches (to exercise evictions), tracking enabled.
// api:keep — the small machine the tests of six packages build.
func TestConfig(cores int) Config {
	c := DefaultConfig()
	c.Cores = cores
	c.L1Size = 1 << 10 // 16 lines: evictions are frequent
	c.L1Ways = 2
	c.LLCSize = 64 << 10
	c.LLCWays = 4
	c.LLCBanks = 4
	c.MeshDim = 2
	c.NVM.Controllers = 2
	c.RETSize = 8
	c.RETWatermark = 6
	c.ARPBufferCap = 16
	c.TrackHB = true
	return c
}

// Validate checks the configuration for structural problems.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > 64 {
		return fmt.Errorf("memsys: cores must be in 1..64, got %d", c.Cores)
	}
	if !c.Mechanism.Valid() {
		return fmt.Errorf("memsys: no registered mechanism for %v", c.Mechanism)
	}
	if c.MeshDim <= 0 {
		return fmt.Errorf("memsys: mesh dimension must be positive")
	}
	if c.RETSize <= 0 || c.RETWatermark <= 0 || c.RETWatermark > c.RETSize {
		return fmt.Errorf("memsys: bad RET geometry %d/%d", c.RETWatermark, c.RETSize)
	}
	if c.EpochBits == 0 || c.EpochBits > 32 {
		return fmt.Errorf("memsys: bad epoch width %d", c.EpochBits)
	}
	if c.ARPBufferCap <= 0 {
		return fmt.Errorf("memsys: ARP buffer capacity must be positive")
	}
	if c.MaxPendingPersists <= 0 {
		return fmt.Errorf("memsys: MaxPendingPersists must be positive")
	}
	if c.NVM.Controllers <= 0 {
		return fmt.Errorf("memsys: need at least one NVM controller")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// WithMechanism returns a copy of the config using mechanism k. The
// TrackHB setting is preserved.
func (c Config) WithMechanism(k mech.Kind) Config {
	c.Mechanism = k
	return c
}
