package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestScenarioMatchesGolden byte-compares the scenario audit of a pinned
// paper allocation (fig1) and of a mixed-budget game (hetero:5,3,2,1)
// against committed output, with the runtime on one and on two threads.
func TestScenarioMatchesGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ scenario, golden string }{
		{"fig1", "scenario_fig1.golden"},
		{"hetero:5,3,2,1", "scenario_hetero_5_3_2_1.golden"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			var b strings.Builder
			if err := run([]string{"-mode", "scenario", "-scenario", tc.scenario}, &b); err != nil {
				t.Fatalf("%s: %v", tc.scenario, err)
			}
			if b.String() != string(want) {
				t.Errorf("%s (GOMAXPROCS=%d): output diverged from %s:\n--- got\n%s--- want\n%s",
					tc.scenario, procs, tc.golden, b.String(), want)
			}
		}
	}
}
