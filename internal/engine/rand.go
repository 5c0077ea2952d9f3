package engine

// Rand is a small deterministic PRNG (splitmix64 core) used everywhere
// randomness is needed in the simulator: workload key choice, crash-point
// selection, tie-breaking. Using our own generator rather than math/rand
// pins the exact sequence across Go releases, which keeps recorded
// experiment outputs stable.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{state: seed + 0x9e3779b97f4a7c15}
	// Warm the state so small seeds diverge immediately.
	r.Uint64()
	r.Uint64()
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("engine: Intn bound must be positive")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). n must be positive.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("engine: Uint64n bound must be positive")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }
