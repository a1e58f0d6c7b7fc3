package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunSingleExperiment(t *testing.T) {
	// The cheap text-only experiments keep this test fast.
	for _, id := range []string{"f3", "c2", "a4", "F3"} {
		if err := run(id, ""); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	// Every registered id resolves in either case, and -list prints
	// each of them once, in registry order.
	reg := experiments.Registry()
	if len(reg) != 14 {
		t.Fatalf("registry holds %d experiments, want 14", len(reg))
	}
	var listed bytes.Buffer
	printIDs(&listed)
	lines := strings.Fields(listed.String())
	if len(lines) != len(reg) {
		t.Fatalf("-list printed %d ids, want %d: %q", len(lines), len(reg), lines)
	}
	for i, e := range reg {
		if lines[i] != e.ID {
			t.Errorf("-list line %d = %q, want %q", i, lines[i], e.ID)
		}
		for _, id := range []string{strings.ToLower(e.ID), strings.ToUpper(e.ID)} {
			if _, ok := lookup(id); !ok {
				t.Errorf("registered experiment %q does not resolve as %q", e.ID, id)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("zzz", ""); err == nil {
		t.Error("unknown experiment should fail")
	}
}
