package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMapFieldDeclaredInSiblingFile: a range over a map field declared in
// another file of the same package is flagged unless annotated, and test
// files neither declare names nor get checked.
func TestMapFieldDeclaredInSiblingFile(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{ // maprange:ok — writes independent files
		"decl.go": `package p

type State struct {
	Members map[uint64]uint64
}
`,
		"use.go": `package p

func keys(s *State) (out []uint64) {
	for k := range s.Members {
		out = append(out, k)
	}
	// maprange:ok — summing is order-independent
	for k := range s.Members {
		out[0] += k
	}
	return out
}
`,
		"use_test.go": `package p

var Scratch map[int]int

func walk(s *State) {
	for range s.Members {
	}
}
`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := checkDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "use.go") + `:4: range over map "Members"`
	if len(bad) != 1 || !strings.HasPrefix(bad[0], want) {
		t.Fatalf("checkDir flagged %q, want one site %q", bad, want)
	}
}
