package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestMapOrderIndependent(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, err := Map(workers, 50, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapZeroCells(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) {
		t.Fatal("fn called for empty job list")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestMapErrorCellsStillRunOthers(t *testing.T) {
	var ran atomic.Int64
	out, err := Map(4, 10, func(i int) (string, error) {
		ran.Add(1)
		if i%3 == 0 {
			return "", fmt.Errorf("boom %d", i)
		}
		return fmt.Sprintf("ok %d", i), nil
	})
	if ran.Load() != 10 {
		t.Fatalf("only %d cells ran", ran.Load())
	}
	if err == nil {
		t.Fatal("expected joined error")
	}
	// Every failing cell is identified by index; every other cell's
	// result survives.
	for i := range out {
		if i%3 == 0 {
			if out[i] != "" {
				t.Fatalf("failed cell %d has result %q", i, out[i])
			}
			var ce *CellError
			if !errors.As(err, &ce) {
				t.Fatal("no CellError in joined error")
			}
			if want := fmt.Sprintf("cell %d: boom %d", i, i); !contains(err.Error(), want) {
				t.Fatalf("error %q missing %q", err, want)
			}
		} else if out[i] != fmt.Sprintf("ok %d", i) {
			t.Fatalf("out[%d] = %q", i, out[i])
		}
	}
}

func TestMapCellErrorUnwraps(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, err := Map(2, 3, func(i int) (int, error) {
		if i == 1 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("joined error does not unwrap to the cell's cause: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
