package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenDir holds the byte pins of `sweep -exp all -seed 7`: its stdout
// and the twelve CSVs it writes. Refactors of the game kernel must leave
// every byte in place; regenerate only for an intended output change.
const goldenDir = "testdata/all_seed7"

// TestSweepAllMatchesGolden byte-compares the full suite's stdout and
// every CSV against the committed pins, at one and at two workers.
func TestSweepAllMatchesGolden(t *testing.T) {
	wantOut, err := os.ReadFile(goldenDir + ".stdout")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	wantCSVs := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		wantCSVs[e.Name()] = string(data)
	}
	if len(wantCSVs) != 12 {
		t.Fatalf("golden directory holds %d CSVs, want 12", len(wantCSVs))
	}
	for _, workers := range []int{1, 2} {
		gotOut, gotCSVs := sweepRun(t, "all", 7, workers)
		if gotOut != string(wantOut) {
			t.Errorf("workers=%d: stdout diverged from %s.stdout:\n%s", workers, goldenDir, firstDiff(string(wantOut), gotOut))
		}
		if len(gotCSVs) != len(wantCSVs) {
			t.Errorf("workers=%d: wrote %d CSVs, want %d", workers, len(gotCSVs), len(wantCSVs))
		}
		for name, want := range wantCSVs {
			if got, ok := gotCSVs[name]; !ok {
				t.Errorf("workers=%d: %s not written", workers, name)
			} else if got != want {
				t.Errorf("workers=%d: %s diverged from golden:\n%s", workers, name, firstDiff(want, got))
			}
		}
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
