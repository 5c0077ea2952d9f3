// Package fault is the deterministic fault-injection plane of the
// simulated machine. Real persistent memory does not behave like the
// idealized NVM the timing model assumes: lines persist with 8-byte — not
// 64-byte — failure atomicity, controllers transiently reject writes and
// surface media read errors, and background machinery (patrol scrubs,
// wear-leveling moves) can stall a persist engine at the worst moment.
// The crash-robustness literature (Ben-David et al., "Delay-Free
// Concurrency on Faulty Persistent Memory") argues that a recovery claim
// is only as strong as the fault model it survives; this package supplies
// that adversary.
//
// Every injection decision is a pure function of (Config, site, operands):
// the plane hashes the seed together with the decision site, the line
// address and the cycle, so a given configuration injects exactly the
// same faults on every run, regardless of how many times a crash image is
// reconstructed or in what order tooling queries it. Determinism is what
// makes an injected failure debuggable — re-running the seed replays the
// failure cycle-for-cycle.
package fault

import (
	"fmt"

	"lrp/internal/engine"
	"lrp/internal/isa"
)

// Config enables and tunes the injectors. The zero value injects nothing;
// probabilities are per decision site (per persist, per read, per
// persist-engine run, per in-flight line at a crash instant).
type Config struct {
	// Seed drives every injection decision. Two planes with the same
	// Config inject identical faults.
	Seed uint64
	// TearProb is the probability that a line persist still in flight at
	// a crash instant is torn: only a deterministic subset of its 8-byte
	// words reached the media. Zero reproduces the idealized
	// line-atomic NVM.
	TearProb float64
	// WriteFaultProb is the per-attempt probability that an NVM
	// controller rejects a line persist (transient media/controller
	// fault). The controller retries with exponential backoff, bounded
	// by nvm.Config.MaxRetries.
	WriteFaultProb float64
	// ReadFaultProb is the per-attempt probability of a transient media
	// error on a line fill; the controller retries the read the same way.
	ReadFaultProb float64
	// StallProb is the per-run probability that a persist-engine run is
	// delayed by an injected controller stall (scrub, wear-leveling),
	// widening the window a crash can land in.
	StallProb float64
	// StallMax bounds one injected stall, in cycles (uniform in
	// [1, StallMax]). Zero with StallProb > 0 defaults to 1000 cycles.
	StallMax engine.Time
}

// Enabled reports whether any injector is active.
func (c Config) Enabled() bool {
	return c.TearProb > 0 || c.WriteFaultProb > 0 || c.ReadFaultProb > 0 || c.StallProb > 0
}

// Validate checks the configuration for structural problems.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"TearProb", c.TearProb},
		{"WriteFaultProb", c.WriteFaultProb},
		{"ReadFaultProb", c.ReadFaultProb},
		{"StallProb", c.StallProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s must be in [0,1], got %g", p.name, p.v)
		}
	}
	if c.StallMax < 0 {
		return fmt.Errorf("fault: StallMax must be nonnegative, got %v", c.StallMax)
	}
	return nil
}

// EnableAll returns a configuration with every injector active at rates
// aggressive enough to exercise all the machinery in a short run while
// leaving most operations unfaulted.
func EnableAll(seed uint64) Config {
	return Config{
		Seed:           seed,
		TearProb:       0.5,
		WriteFaultProb: 0.05,
		ReadFaultProb:  0.05,
		StallProb:      0.1,
		StallMax:       2000,
	}
}

// Stats counts the execution-side decisions the plane made. The plane
// itself is stateless: the machine counts each decision where it takes
// effect (memsys.System.FaultStats sums them). Torn lines are counted at
// image reconstruction (nvm.Stats.TornApplied), since tearing is a
// property of a crash instant, not of the execution.
type Stats struct {
	// WriteFaults counts injected controller persist rejections.
	WriteFaults uint64
	// ReadFaults counts injected media read errors.
	ReadFaults uint64
	// Stalls counts injected persist-engine stalls; StallCycles their
	// total injected delay.
	Stalls      uint64
	StallCycles uint64
}

// Plane is the fault-injection decision maker. A nil *Plane is a valid
// no-fault plane: every query method tolerates a nil receiver, so the
// machine layers hold one pointer and pay one branch when disabled.
type Plane struct {
	cfg Config
}

// New builds a plane from the configuration.
func New(cfg Config) (*Plane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Plane{cfg: cfg}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Plane {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Config returns the plane's configuration (zero for a nil plane).
func (p *Plane) Config() Config {
	if p == nil {
		return Config{}
	}
	return p.cfg
}

// Decision sites. Each site gets an independent hash stream so that, for
// example, the tear decision for a line is uncorrelated with the write
// faults it suffered.
const (
	siteWrite uint64 = iota + 1
	siteRead
	siteTear
	siteTearMask
	siteStall
	siteStallLen
)

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash combines the seed, a decision site and up to three operands into
// one deterministic 64-bit value.
func (p *Plane) hash(site, a, b, k uint64) uint64 {
	h := p.cfg.Seed + 0x9e3779b97f4a7c15
	h = mix64(h ^ site*0xbf58476d1ce4e5b9)
	h = mix64(h ^ a)
	h = mix64(h ^ b)
	return mix64(h ^ k)
}

// roll maps a hash to [0, 1).
func (p *Plane) roll(site, a, b, k uint64) float64 {
	return float64(p.hash(site, a, b, k)>>11) / (1 << 53)
}

// WriteFaults returns how many consecutive times the controller rejects
// the persist of line arriving at time at, capped at max. The caller
// (the NVM controller) absorbs each rejection with exponential backoff;
// a return value equal to max means the retry budget is exhausted.
func (p *Plane) WriteFaults(line isa.Addr, at engine.Time, max int) int {
	if p == nil || p.cfg.WriteFaultProb <= 0 || max <= 0 {
		return 0
	}
	n := 0
	for n < max && p.roll(siteWrite, uint64(line), uint64(at), uint64(n)) < p.cfg.WriteFaultProb {
		n++
	}
	return n
}

// ReadFaults returns how many consecutive media errors the controller
// absorbs on the line fill arriving at time at, capped at max.
func (p *Plane) ReadFaults(line isa.Addr, at engine.Time, max int) int {
	if p == nil || p.cfg.ReadFaultProb <= 0 || max <= 0 {
		return 0
	}
	n := 0
	for n < max && p.roll(siteRead, uint64(line), uint64(at), uint64(n)) < p.cfg.ReadFaultProb {
		n++
	}
	return n
}

// TornWords decides whether the persist of line completing at done — in
// flight at some crash instant — is torn, and if so which of its 8-byte
// words reached the media (bit i of mask set: word i is durable). The
// mask is never all-ones (that would be a completed persist) but may be
// zero (the persist contributed nothing yet). The decision depends only
// on (seed, line, done): every reconstruction of every crash instant in
// the in-flight window sees the same tear, which keeps crash images
// monotone as the crash instant advances past the ack.
func (p *Plane) TornWords(line isa.Addr, done engine.Time) (mask uint64, torn bool) {
	if p == nil || p.cfg.TearProb <= 0 {
		return 0, false
	}
	if p.roll(siteTear, uint64(line), uint64(done), 0) >= p.cfg.TearProb {
		return 0, false
	}
	h := p.hash(siteTearMask, uint64(line), uint64(done), 0)
	mask = h & (1<<isa.WordsPerLine - 1)
	if mask == 1<<isa.WordsPerLine-1 {
		// Clear one deterministically-chosen word so the tear is real.
		mask &^= 1 << ((h >> isa.WordsPerLine) % isa.WordsPerLine)
	}
	return mask, true
}

// EngineStall returns the injected delay, in cycles, for a persist-engine
// run by thread tid starting at now (zero: no stall injected).
func (p *Plane) EngineStall(tid int, now engine.Time) engine.Time {
	if p == nil || p.cfg.StallProb <= 0 {
		return 0
	}
	if p.roll(siteStall, uint64(tid), uint64(now), 0) >= p.cfg.StallProb {
		return 0
	}
	max := p.cfg.StallMax
	if max <= 0 {
		max = 1000
	}
	return 1 + engine.Time(p.hash(siteStallLen, uint64(tid), uint64(now), 0)%uint64(max))
}
