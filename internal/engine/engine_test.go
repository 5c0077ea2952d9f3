package engine

import (
	"testing"
	"testing/quick"
)

func TestMax(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max broken")
	}
	if Max(-1, 0) != 0 {
		t.Fatal("Max with negative broken")
	}
}

func TestTimeString(t *testing.T) {
	if Time(42).String() != "42cy" {
		t.Fatalf("got %q", Time(42).String())
	}
}

func TestServerIdle(t *testing.T) {
	var s Server
	if got := s.Serve(100, 10); got != 110 {
		t.Fatalf("idle serve: got %v want 110", got)
	}
	if got := s.FreeAt(100); got != 110 {
		t.Fatalf("busy until: got %v want 110", got)
	}
}

func TestServerQueuing(t *testing.T) {
	var s Server
	s.Serve(0, 100) // occupies [0,100)
	if got := s.Serve(10, 5); got != 105 {
		t.Fatalf("queued serve: got %v want 105", got)
	}
	if got := s.Serve(200, 5); got != 205 {
		t.Fatalf("post-idle serve: got %v want 205", got)
	}
}

func TestServerFreeAt(t *testing.T) {
	var s Server
	s.Serve(0, 50)
	if got := s.FreeAt(10); got != 50 {
		t.Fatalf("FreeAt busy: got %v", got)
	}
	if got := s.FreeAt(80); got != 80 {
		t.Fatalf("FreeAt idle: got %v", got)
	}
}

func TestServerReset(t *testing.T) {
	var s Server
	s.Serve(0, 50)
	s.Reset()
	if got := s.Serve(0, 5); got != 5 {
		t.Fatalf("after reset: got %v want 5", got)
	}
}

// Completion times from a single FIFO server never decrease and never
// overlap: each completion is at least latency after the previous one.
func TestServerMonotonicProperty(t *testing.T) {
	f := func(arrivals []uint16, latency uint8) bool {
		var s Server
		lat := Time(latency%50) + 1
		now := Time(0)
		prev := Time(0)
		for _, a := range arrivals {
			now += Time(a % 100)
			done := s.Serve(now, lat)
			if done < now+lat {
				return false
			}
			if done < prev+lat {
				return false
			}
			prev = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerBankSelection(t *testing.T) {
	b := NewServerBank(4)
	if b.Len() != 4 {
		t.Fatalf("Len: got %d", b.Len())
	}
	// Same key must always map to the same bank.
	if b.Bank(13) != b.Bank(13) {
		t.Fatal("bank selection not stable")
	}
	// Keys differing by the bank count map to the same bank.
	if b.Bank(1) != b.Bank(5) {
		t.Fatal("bank selection not modular")
	}
	b.Bank(0).Serve(0, 10)
	b.Bank(1).Serve(0, 20)
	if b.Bank(0).FreeAt(0) != 10 || b.Bank(1).FreeAt(0) != 20 || b.Bank(2).FreeAt(0) != 0 {
		t.Fatal("banks do not queue independently")
	}
	b.Reset()
	if b.Bank(0).FreeAt(0) != 0 || b.Bank(1).FreeAt(0) != 0 {
		t.Fatal("Reset left a bank busy")
	}
}

func TestServerBankPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewServerBank(0)
}

func TestCompletionSetBasics(t *testing.T) {
	var c CompletionSet
	c.Add(10)
	c.Add(30)
	c.Add(20)
	if c.Len() != 3 {
		t.Fatalf("Len: got %d", c.Len())
	}
	if got := c.MaxTime(5); got != 30 {
		t.Fatalf("MaxTime: got %v", got)
	}
	if got := c.MaxTime(50); got != 50 {
		t.Fatalf("MaxTime past end: got %v", got)
	}
	if got := c.DrainUpTo(20); got != 2 {
		t.Fatalf("DrainUpTo(20): got %d", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after drain: got %d", c.Len())
	}
	if got := c.DrainUpTo(30); got != 1 || c.Len() != 0 {
		t.Fatalf("DrainUpTo(30): got %d, Len %d", got, c.Len())
	}
}

// MaxTime must still see a completion that ReleaseSlots retired at a
// later clock: the persist engine asks at a requester's earlier clock.
func TestCompletionSetMaxTimeAfterRetire(t *testing.T) {
	var c CompletionSet
	c.Add(500)
	c.ReleaseSlots(600, 0)
	if got := c.MaxTime(100); got != 500 {
		t.Fatalf("MaxTime(100) after retiring 500 at 600: got %v, want 500", got)
	}
}

// DrainUpTo must pop exactly the completions <= now, regardless of
// insertion order.
func TestCompletionSetDrainProperty(t *testing.T) {
	f := func(times []uint16, cut uint16) bool {
		var c CompletionSet
		want := 0
		for _, v := range times {
			c.Add(Time(v))
			if Time(v) <= Time(cut) {
				want++
			}
		}
		got := c.DrainUpTo(Time(cut))
		return got == want && c.Len() == len(times)-want && c.DrainUpTo(Time(cut)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	d := NewRand(42)
	for i := 0; i < 1000; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds too correlated: %d collisions", same)
	}
}

func TestRandBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Uint64n(5); v >= 5 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Uint64n(0)
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(123)
	buckets := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		buckets[r.Intn(8)]++
	}
	for i, b := range buckets {
		if b < n/8-n/80 || b > n/8+n/80 {
			t.Fatalf("bucket %d badly skewed: %d", i, b)
		}
	}
}
