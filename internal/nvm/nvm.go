// Package nvm models the non-volatile memory subsystem: multiple NVM
// controllers that serialize persists (bandwidth contention), the two
// Optane-derived latency modes the paper evaluates (Table 1: cached mode
// 120 cycles — persists complete at a battery-backed NVM-side DRAM cache
// — and uncached mode 350 cycles), and a persist event log from which the
// exact NVM image at any crash instant can be reconstructed.
package nvm

import (
	"lrp/internal/engine"
	"lrp/internal/fault"
	"lrp/internal/flat"
	"lrp/internal/isa"
	"lrp/internal/mm"
	"lrp/internal/obs"
	"lrp/internal/stats"
)

// Mode selects the NVM-side DRAM cache behaviour.
type Mode int

const (
	// Cached: persists complete at the battery-backed DRAM cache in
	// front of the NVM (the paper's default).
	Cached Mode = iota
	// Uncached: persists complete only at the NVM media.
	Uncached
)

func (m Mode) String() string {
	if m == Cached {
		return "cached"
	}
	return "uncached"
}

// Config sizes the subsystem.
type Config struct {
	// Controllers is the number of NVM memory controllers.
	Controllers int
	// Mode selects cached/uncached persist latency.
	Mode Mode
	// CachedLat and UncachedLat are the per-access completion latencies.
	CachedLat   engine.Time
	UncachedLat engine.Time
	// CachedOcc and UncachedOcc are the per-access controller occupancy
	// times (the bandwidth term): in cached mode the battery-backed DRAM
	// cache accepts a line every few cycles; in uncached mode the PCM
	// media's write bandwidth gates acceptance.
	CachedOcc   engine.Time
	UncachedOcc engine.Time
	// MaxRetries bounds how many times a controller re-attempts an
	// access the fault plane rejected before escalating (remapping the
	// line to a spare block). Only consulted when a fault plane is
	// attached.
	MaxRetries int
	// RetryBase is the backoff before the first retry; each further
	// retry doubles it (exponential backoff).
	RetryBase engine.Time
}

// DefaultConfig mirrors Table 1 of the paper.
func DefaultConfig() Config {
	return Config{
		Controllers: 4,
		Mode:        Cached,
		CachedLat:   120,
		UncachedLat: 350,
		CachedOcc:   16,
		UncachedOcc: 116,
		MaxRetries:  3,
		RetryBase:   16,
	}
}

// Stats sums the subsystem's rows of the machine's counter block.
type Stats struct {
	// Persists counts line persists issued.
	Persists uint64
	// Reads counts line fills served from NVM.
	Reads uint64
	// BytesPersisted is Persists * line size.
	BytesPersisted uint64
	// Retries counts injected-fault retry attempts the controllers
	// absorbed (writes and reads); BackoffCycles their total backoff.
	Retries       uint64
	BackoffCycles uint64
	// Giveups counts accesses that exhausted the retry budget and were
	// escalated (line remapped to a spare block).
	Giveups uint64
	// TornApplied counts torn (word-subset) line applications during
	// crash-image reconstruction.
	TornApplied uint64
}

// Sub returns the counter deltas s - before, field by field.
func (s Stats) Sub(before Stats) Stats { return stats.Delta(s, before) }

// Event is one completed (or in-flight) line persist.
type Event struct {
	// Start is when the media write began; Done is when the persist
	// completed (acked) at the controller. A crash inside [Start, Done)
	// finds the line mid-persist: under the idealized NVM it contributes
	// nothing, under a fault plane with tearing it may contribute a
	// word subset.
	Start engine.Time
	Done  engine.Time
	// Line is the line base address.
	Line isa.Addr
	// Words is the line content captured when the persist was issued.
	Words [isa.WordsPerLine]uint64
}

// Subsystem is the set of NVM controllers plus the persist log.
type Subsystem struct {
	cfg   Config
	banks *engine.ServerBank

	// cnt is the machine's counter block; the subsystem counts its
	// controller events in cnt.Ctrl and torn lines in cnt.Tears.
	cnt *obs.Counts

	// lineStart is the start of each line's latest persist: the floor
	// for the line's next one, so same-line persists complete in issue
	// order.
	lineStart flat.Table[engine.Time]

	// log is the persist event log crash images are rebuilt from; kept
	// only when keepLog is set (timing-only runs leave it off).
	keepLog bool
	log     []Event

	// o feeds the per-controller histograms (queue delay, backoff); nil
	// unless SetObserver was called.
	o *obs.Observer
	// faults injects controller rejections, read errors and torn lines;
	// nil models a perfect NVM.
	faults *fault.Plane
}

// New builds the subsystem; keepLog keeps the persist event log needed
// for crash-image reconstruction. The subsystem counts into cnt, which
// must have a row per controller; nil gives it a block of its own.
func New(cfg Config, keepLog bool, cnt *obs.Counts) *Subsystem {
	if cfg.Controllers <= 0 {
		panic("nvm: need at least one controller")
	}
	if cnt == nil {
		cnt = obs.NewCounts(0, 0, cfg.Controllers)
	}
	return &Subsystem{cfg: cfg, banks: engine.NewServerBank(cfg.Controllers), keepLog: keepLog, cnt: cnt}
}

// Latency returns the per-access completion latency for the current mode.
func (s *Subsystem) Latency() engine.Time {
	if s.cfg.Mode == Cached {
		return s.cfg.CachedLat
	}
	return s.cfg.UncachedLat
}

// StartOf returns when the persist acked at done began its media write:
// every persist takes Latency().
func (s *Subsystem) StartOf(done engine.Time) engine.Time { return done - s.Latency() }

// Occupancy returns the per-access controller occupancy (bandwidth term)
// for the current mode; a zero config falls back to full serialization.
func (s *Subsystem) Occupancy() engine.Time {
	occ := s.cfg.CachedOcc
	if s.cfg.Mode == Uncached {
		occ = s.cfg.UncachedOcc
	}
	if occ <= 0 || occ > s.Latency() {
		return s.Latency()
	}
	return occ
}

// Mode returns the configured latency mode.
func (s *Subsystem) Mode() Mode { return s.cfg.Mode }

// Stats sums the controller rows and the torn-line count.
func (s *Subsystem) Stats() Stats {
	st := Stats{TornApplied: s.cnt.Tears.Load()}
	for _, c := range s.cnt.Ctrl {
		st.Persists += c.Persists
		st.Reads += c.Reads
		st.Retries += c.Retries
		st.BackoffCycles += c.BackoffCycles
		st.Giveups += c.Giveups
	}
	st.BytesPersisted = st.Persists * isa.LineSize
	return st
}

// SetObserver attaches the observability layer.
func (s *Subsystem) SetObserver(o *obs.Observer) { s.o = o }

// SetFaults attaches a fault-injection plane (nil: perfect NVM).
func (s *Subsystem) SetFaults(p *fault.Plane) { s.faults = p }

// Faults returns the attached fault plane (nil when none).
func (s *Subsystem) Faults() *fault.Plane { return s.faults }

// retryDelay converts an injected rejection count into the controller's
// total exponential-backoff delay and updates the retry counters. It
// reports whether the access exhausted its retry budget (giveup).
func (s *Subsystem) retryDelay(ctrl int, rejects int) (engine.Time, bool) {
	if rejects == 0 {
		return 0, false
	}
	c := &s.cnt.Ctrl[ctrl]
	gaveUp := rejects > s.cfg.MaxRetries
	retries := rejects
	if gaveUp {
		retries = s.cfg.MaxRetries
	}
	base := s.cfg.RetryBase
	if base <= 0 {
		base = 1
	}
	var backoff engine.Time
	for k := 0; k < retries; k++ {
		backoff += base << k
	}
	c.Retries += uint64(retries)
	c.BackoffCycles += uint64(backoff)
	if s.o != nil {
		s.o.NVMRetry(ctrl, backoff)
	}
	if gaveUp {
		// Retry budget exhausted: the controller remaps the line to a
		// spare block and completes there, at a penalty.
		c.Giveups++
		backoff += 4 * s.Latency()
	}
	return backoff, gaveUp
}

func (s *Subsystem) controller(line isa.Addr) *engine.Server {
	return s.banks.Bank(uint64(line) >> isa.LineShift)
}

// controllerIndex returns the controller number serving a line address.
func (s *Subsystem) controllerIndex(line isa.Addr) int {
	return int((uint64(line) >> isa.LineShift) % uint64(s.cfg.Controllers))
}

// PersistLine issues a persist of the given line content and returns the
// completion (ack) time. The command arrives at the controller at time
// now (consuming a bandwidth slot in arrival order) but may not start
// before earliestStart — the hold that epoch-ordered persist chains
// impose — nor before the start of the line's previous persist. Every
// persist takes the same latency, so persists of one line ack in issue
// order (ties keep log order): a later persist that no hold delays can
// never complete ahead of an earlier, held one and be overwritten by its
// older content. Content is captured by value at issue; the controller
// applies it to the durable image at completion.
func (s *Subsystem) PersistLine(now, earliestStart engine.Time, line isa.Addr, words [isa.WordsPerLine]uint64) engine.Time {
	line = line.Line()
	if earliestStart < now {
		earliestStart = now
	}
	ctrl := s.controllerIndex(line)
	// Transient controller faults: each rejected attempt re-arrives
	// after an exponentially growing backoff, so the command reaches the
	// controller late but with its ordering constraint intact.
	if s.faults != nil {
		rejects := s.faults.WriteFaults(line, now, s.cfg.MaxRetries+1)
		s.cnt.Ctrl[ctrl].WriteFaults += uint64(rejects)
		if delay, _ := s.retryDelay(ctrl, rejects); delay > 0 {
			now += delay
			if earliestStart < now {
				earliestStart = now
			}
		}
	}
	prev, created := s.lineStart.Upsert(uint64(line))
	if !created && earliestStart < *prev {
		earliestStart = *prev
	}
	srv := s.controller(line)
	if s.o != nil {
		// Queue delay: how long the command waits behind earlier traffic
		// before the controller accepts it (the bandwidth term).
		s.o.NVMPersist(ctrl, srv.FreeAt(now)-now)
	}
	done := srv.ServeConstrained(now, earliestStart, s.Latency(), s.Occupancy())
	start := s.StartOf(done)
	*prev = start
	s.cnt.Ctrl[ctrl].Persists++
	if s.keepLog {
		s.log = append(s.log, Event{Start: start, Done: done, Line: line, Words: words})
	}
	return done
}

// ReadLine books a line fill from NVM at time now and returns the time
// the data is available. Reads contend with persists at the controller.
func (s *Subsystem) ReadLine(now engine.Time, line isa.Addr) engine.Time {
	line = line.Line()
	ctrl := s.controllerIndex(line)
	if s.faults != nil {
		// Media read errors: the controller re-reads with backoff before
		// the fill is delivered.
		rejects := s.faults.ReadFaults(line, now, s.cfg.MaxRetries+1)
		s.cnt.Ctrl[ctrl].ReadFaults += uint64(rejects)
		if delay, _ := s.retryDelay(ctrl, rejects); delay > 0 {
			now += delay
		}
	}
	done := s.controller(line).ServePipelined(now, s.Latency(), s.Occupancy())
	s.cnt.Ctrl[ctrl].Reads++
	return done
}

// Events returns the persist log (nil unless the subsystem keeps it).
func (s *Subsystem) Events() []Event { return s.log }

// FinalImage reconstructs the durable image after all logged persists
// over base (the memory contents that existed before the measured run;
// nil for an all-zero initial image).
func (s *Subsystem) FinalImage(base *mm.Memory) *mm.Memory {
	return s.NewCursor(base).AdvanceTo(engine.Infinity)
}
