package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestReachFlagsUnlinkedFunctions builds a fixture module whose binary
// links part of a library: a planted function nothing calls and one only
// a test calls are reported, an api:keep one is not, and a generic
// method on a struct shape (spaces in its nm name) and a closure's
// parent count as linked.
func TestReachFlagsUnlinkedFunctions(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{ // maprange:ok — writes independent files
		"go.mod": "module fixture\n\ngo 1.22\n",
		"cmd/app/main.go": `package main

import "fixture/lib"

func main() {
	var t lib.Table[struct{ A, B int }]
	t.Get()
	lib.Used()
}
`,
		"lib/lib.go": `package lib

type Table[V any] struct{ v V }

func (t *Table[V]) Get() V { return t.v }

func Used() { func() { helper() }() }

func helper() {}

func Planted() {}

// Kept is public surface.
// api:keep — documented for library users.
func Kept() {}

func TestOnly() {}

func init() {}
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }
`,
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := checkReach(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:11: Planted is linked by no binary",
		"lib/lib.go:17: TestOnly is linked by no binary",
	}
	if !slices.Equal(bad, want) {
		t.Fatalf("checkReach reported\n%s\nwant\n%s", strings.Join(bad, "\n"), strings.Join(want, "\n"))
	}
}

// TestSymKey maps nm names to declaration keys.
func TestSymKey(t *testing.T) {
	for sym, want := range map[string]string{ // maprange:ok — independent cases
		"lrp/internal/flat.(*Table[go.shape.struct { K uint64; V int }]).Delete": "lrp/internal/flat.Table.Delete",
		"lrp/internal/stats.Delta[go.shape.map[uint64]uint64]":                   "lrp/internal/stats.Delta",
		"lrp/internal/exp.Map[go.shape.int].func1.2":                             "lrp/internal/exp.Map",
		"lrp/internal/obs.(*Registry).Counter-fm":                                "lrp/internal/obs.Registry.Counter",
		"lrp.SweepCrash.gowrap1":                                                 "lrp.SweepCrash",
		"lrp/internal/isa.Op.String":                                             "lrp/internal/isa.Op.String",
	} {
		if got := symKey(sym); got != want {
			t.Errorf("symKey(%q) = %q, want %q", sym, got, want)
		}
	}
}
