package fault

import (
	"testing"

	"lrp/internal/engine"
	"lrp/internal/isa"
)

func TestZeroConfigInjectsNothing(t *testing.T) {
	p := MustNew(Config{Seed: 1})
	for i := 0; i < 1000; i++ {
		line := isa.Addr(i * isa.LineSize)
		at := engine.Time(i * 13)
		if n := p.WriteFaults(line, at, 8); n != 0 {
			t.Fatalf("write fault injected with zero config")
		}
		if n := p.ReadFaults(line, at, 8); n != 0 {
			t.Fatalf("read fault injected with zero config")
		}
		if _, torn := p.TornWords(line, at); torn {
			t.Fatalf("tear injected with zero config")
		}
		if d := p.EngineStall(i%4, at); d != 0 {
			t.Fatalf("stall injected with zero config")
		}
	}
}

func TestNilPlaneIsNoFault(t *testing.T) {
	var p *Plane
	if n := p.WriteFaults(0x40, 10, 4); n != 0 {
		t.Fatal("nil plane injected a write fault")
	}
	if _, torn := p.TornWords(0x40, 10); torn {
		t.Fatal("nil plane injected a tear")
	}
	if d := p.EngineStall(0, 10); d != 0 {
		t.Fatal("nil plane injected a stall")
	}
	if p.Config() != (Config{}) {
		t.Fatal("nil plane leaked state")
	}
}

// TestDeterministic is the package's contract: two planes with the same
// config answer every query identically, in any order.
func TestDeterministic(t *testing.T) {
	cfg := EnableAll(42)
	a, b := MustNew(cfg), MustNew(cfg)
	// Query b in reverse order to show order independence.
	type q struct {
		line isa.Addr
		at   engine.Time
	}
	var qs []q
	for i := 0; i < 500; i++ {
		qs = append(qs, q{isa.Addr(i * isa.LineSize), engine.Time(i*37 + 5)})
	}
	aw := make([]int, len(qs))
	am := make([]uint64, len(qs))
	at := make([]bool, len(qs))
	as := make([]engine.Time, len(qs))
	for i, v := range qs {
		aw[i] = a.WriteFaults(v.line, v.at, 4)
		am[i], at[i] = a.TornWords(v.line, v.at)
		as[i] = a.EngineStall(i%8, v.at)
	}
	for i := len(qs) - 1; i >= 0; i-- {
		v := qs[i]
		if got := b.WriteFaults(v.line, v.at, 4); got != aw[i] {
			t.Fatalf("q%d: write faults %d != %d", i, got, aw[i])
		}
		m, torn := b.TornWords(v.line, v.at)
		if m != am[i] || torn != at[i] {
			t.Fatalf("q%d: tear (%x,%v) != (%x,%v)", i, m, torn, am[i], at[i])
		}
		if got := b.EngineStall(i%8, v.at); got != as[i] {
			t.Fatalf("q%d: stall %v != %v", i, got, as[i])
		}
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	a := MustNew(EnableAll(1))
	b := MustNew(EnableAll(2))
	same := 0
	const n = 2000
	for i := 0; i < n; i++ {
		line, at := isa.Addr(i*isa.LineSize), engine.Time(i*7)
		ma, ta := a.TornWords(line, at)
		mb, tb := b.TornWords(line, at)
		if ma == mb && ta == tb {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical tear decisions")
	}
}

func TestTornMaskNeverFull(t *testing.T) {
	p := MustNew(Config{Seed: 3, TearProb: 1})
	torn := 0
	for i := 0; i < 5000; i++ {
		mask, ok := p.TornWords(isa.Addr(i*isa.LineSize), engine.Time(i))
		if !ok {
			t.Fatalf("TearProb=1 did not tear")
		}
		if mask == 1<<isa.WordsPerLine-1 {
			t.Fatalf("full mask returned: not a tear")
		}
		if mask != 0 {
			torn++
		}
	}
	if torn == 0 {
		t.Fatal("every mask empty: tears carry no words")
	}
}

func TestWriteFaultsRespectCapAndRate(t *testing.T) {
	p := MustNew(Config{Seed: 9, WriteFaultProb: 0.5})
	hit := 0
	for i := 0; i < 4000; i++ {
		n := p.WriteFaults(isa.Addr(i*isa.LineSize), engine.Time(i*3), 3)
		if n < 0 || n > 3 {
			t.Fatalf("rejection count %d out of [0,3]", n)
		}
		if n > 0 {
			hit++
		}
	}
	// With p=0.5 roughly half the persists should see at least one
	// rejection; allow a wide deterministic band.
	if hit < 1000 || hit > 3000 {
		t.Fatalf("faulted %d/4000 persists at p=0.5", hit)
	}
}

func TestStallBounded(t *testing.T) {
	p := MustNew(Config{Seed: 4, StallProb: 1, StallMax: 100})
	for i := 0; i < 1000; i++ {
		d := p.EngineStall(i%4, engine.Time(i*11))
		if d < 1 || d > 100 {
			t.Fatalf("stall %v outside [1,100]", d)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{TearProb: -0.1},
		{WriteFaultProb: 1.5},
		{ReadFaultProb: 2},
		{StallProb: -1},
		{StallMax: -5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d accepted: %+v", i, c)
		}
		if _, err := New(c); err == nil {
			t.Fatalf("New accepted bad config %d", i)
		}
	}
	if err := EnableAll(7).Validate(); err != nil {
		t.Fatalf("EnableAll invalid: %v", err)
	}
	if !EnableAll(7).Enabled() || (Config{}).Enabled() {
		t.Fatal("Enabled misreports")
	}
}
