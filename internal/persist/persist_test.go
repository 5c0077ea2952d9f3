package persist

import "testing"

func TestRETBasics(t *testing.T) {
	r := NewRET(4, 3)
	if r.capacity != 4 || r.Len() != 0 || r.AtWatermark() {
		t.Fatal("fresh RET state")
	}
	r.AddAt(0x100, 1, 0)
	r.AddAt(0x200, 2, 0)
	if r.RemoveAt(0x300, 0) {
		t.Fatal("phantom remove")
	}
	if r.AtWatermark() {
		t.Fatal("watermark too eager")
	}
	r.AddAt(0x300, 3, 0)
	if !r.AtWatermark() {
		t.Fatal("watermark missed")
	}
	old, ok := r.Oldest()
	if !ok || old.Line != 0x100 || old.Epoch != 1 {
		t.Fatalf("Oldest = %+v", old)
	}
	if !r.RemoveAt(0x100, 0) || r.RemoveAt(0x100, 0) {
		t.Fatal("RemoveAt")
	}
	if r.Len() != 2 {
		t.Fatal("Len after remove")
	}
	if old, _ := r.Oldest(); old.Line != 0x200 || old.Epoch != 2 {
		t.Fatalf("Oldest after remove = %+v", old)
	}
	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear")
	}
	if _, ok := r.Oldest(); ok {
		t.Fatal("Oldest on empty")
	}
}

func TestRETPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRET(0, 1) },
		func() { NewRET(4, 0) },
		func() { NewRET(4, 5) },
		func() { r := NewRET(2, 2); r.AddAt(1*64, 1, 0); r.AddAt(1*64, 2, 0) }, // duplicate
		func() {
			r := NewRET(1, 1)
			r.AddAt(0, 1, 0)
			r.AddAt(64, 2, 0) // overflow
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRETOldestByEpoch(t *testing.T) {
	r := NewRET(8, 8)
	// Insertion order differs from epoch order after removals.
	r.AddAt(0x100, 5, 0)
	r.AddAt(0x200, 2, 0)
	r.AddAt(0x300, 9, 0)
	old, _ := r.Oldest()
	if old.Line != 0x200 {
		t.Fatalf("Oldest = %+v", old)
	}
}

func TestEpochCounter(t *testing.T) {
	c := NewEpochCounter(8)
	if c.Current() != 0 || c.Max() != 255 {
		t.Fatal("fresh counter")
	}
	e, ov := c.Advance()
	if e != 1 || ov {
		t.Fatalf("first advance: %d %v", e, ov)
	}
	for i := 0; i < 253; i++ {
		c.Advance()
	}
	if c.Current() != 254 {
		t.Fatalf("current = %d", c.Current())
	}
	if e, ov := c.Advance(); e != 255 || ov {
		t.Fatalf("at max: %d %v", e, ov)
	}
	e, ov = c.Advance()
	if e != 1 || !ov {
		t.Fatalf("overflow: %d %v", e, ov)
	}
	c.Reset()
	if c.Current() != 0 {
		t.Fatal("Reset")
	}
}

func TestEpochCounterWidths(t *testing.T) {
	c := NewEpochCounter(2)
	if c.Max() != 3 {
		t.Fatal("Max for 2 bits")
	}
	for _, f := range []func(){
		func() { NewEpochCounter(0) },
		func() { NewEpochCounter(33) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
