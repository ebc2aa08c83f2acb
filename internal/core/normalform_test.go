package core_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// This file holds an independent oracle for the channel allocation game: a
// brute-force pure-Nash enumerator over a finite normal-form game. It
// shares no code with package core's kernel — strategy rows are built by
// its own recursion, payoffs are Eq. 3 evaluated through the rate
// function, and equilibria are found by trying every unilateral switch —
// so a bug in core's screened, symmetry-reduced enumeration cannot
// silently agree with the same bug here.

// normalForm is a finite game: player i picks a strategy in
// [0, sizes[i]) and payoff maps a full profile to one utility per player.
type normalForm struct {
	sizes  []int
	payoff func(profile []int) []float64
}

// forEachProfile walks every profile in odometer order (last player
// fastest), calling fn with a reused buffer.
func (nf normalForm) forEachProfile(fn func([]int)) {
	profile := make([]int, len(nf.sizes))
	for {
		fn(profile)
		i := len(profile) - 1
		for ; i >= 0; i-- {
			if profile[i]++; profile[i] < nf.sizes[i] {
				break
			}
			profile[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// pureNE returns every profile no player can improve on by more than eps
// with a unilateral switch.
func (nf normalForm) pureNE(eps float64) [][]int {
	var out [][]int
	nf.forEachProfile(func(profile []int) {
		base := append([]float64(nil), nf.payoff(profile)...)
		work := append([]int(nil), profile...)
		for i := range work {
			for s := 0; s < nf.sizes[i]; s++ {
				work[i] = s
				if nf.payoff(work)[i] > base[i]+eps {
					return
				}
			}
			work[i] = profile[i]
		}
		out = append(out, append([]int(nil), profile...))
	})
	return out
}

// budgetRows lists every row of at most k radios over c channels.
func budgetRows(c, k int) [][]int {
	if c == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for x := 0; x <= k; x++ {
		for _, rest := range budgetRows(c-1, k-x) {
			out = append(out, append([]int{x}, rest...))
		}
	}
	return out
}

// channelNormalForm lifts a channel allocation game into a normalForm with
// per-user row tables (user i's strategies are its rows within k_i).
func channelNormalForm(g *core.Game) (normalForm, [][][]int) {
	rows := make([][][]int, g.Users())
	sizes := make([]int, g.Users())
	for i := range rows {
		rows[i] = budgetRows(g.Channels(), g.Budget(i))
		sizes[i] = len(rows[i])
	}
	utils := make([]float64, g.Users())
	loads := make([]int, g.Channels())
	payoff := func(profile []int) []float64 {
		for c := range loads {
			loads[c] = 0
			for i, s := range profile {
				loads[c] += rows[i][s][c]
			}
		}
		for i, s := range profile {
			utils[i] = 0
			for c, own := range rows[i][s] {
				if own > 0 {
					utils[i] += float64(own) / float64(loads[c]) * g.Rate().Rate(loads[c])
				}
			}
		}
		return utils
	}
	return normalForm{sizes: sizes, payoff: payoff}, rows
}

// matrixKey renders a strategy matrix for set comparison.
func matrixKey(m [][]int) string { return fmt.Sprint(m) }

// TestNormalFormOraclePrisonersDilemma checks the oracle itself on a
// textbook game: the prisoner's dilemma has exactly one pure equilibrium,
// mutual defection.
func TestNormalFormOraclePrisonersDilemma(t *testing.T) {
	pd := normalForm{sizes: []int{2, 2}, payoff: func(p []int) []float64 {
		// Strategy 0 cooperates, 1 defects.
		table := [2][2][2]float64{{{3, 3}, {0, 5}}, {{5, 0}, {1, 1}}}
		u := table[p[0]][p[1]]
		return u[:]
	}}
	if got := pd.pureNE(0); len(got) != 1 || got[0][0] != 1 || got[0][1] != 1 {
		t.Fatalf("prisoner's dilemma equilibria %v, want [[1 1]]", got)
	}
}

// TestNormalFormOracleMatchingPennies checks the oracle on a game with no
// pure equilibrium.
func TestNormalFormOracleMatchingPennies(t *testing.T) {
	pennies := normalForm{sizes: []int{2, 2}, payoff: func(p []int) []float64 {
		if p[0] == p[1] {
			return []float64{1, -1}
		}
		return []float64{-1, 1}
	}}
	if got := pennies.pureNE(0); len(got) != 0 {
		t.Fatalf("matching pennies has no pure equilibrium, oracle found %v", got)
	}
}

// TestNormalFormOraclePoAConstantRate: under constant R in the conflict
// regime every equilibrium occupies all channels, so the oracle's own price
// of anarchy — worst equilibrium welfare over the best welfare of any
// profile — is 1 (Theorem 2's system-optimality corollary).
func TestNormalFormOraclePoAConstantRate(t *testing.T) {
	g, err := core.NewGame(2, 2, 2, ratefn.NewTDMA(1))
	if err != nil {
		t.Fatal(err)
	}
	nf, _ := channelNormalForm(g)
	welfare := func(profile []int) float64 {
		var sum float64
		for _, u := range nf.payoff(profile) {
			sum += u
		}
		return sum
	}
	best := math.Inf(-1)
	nf.forEachProfile(func(profile []int) { best = math.Max(best, welfare(profile)) })
	nes := nf.pureNE(core.DefaultEps)
	if len(nes) == 0 {
		t.Fatal("no pure equilibrium")
	}
	worst := math.Inf(1)
	for _, profile := range nes {
		worst = math.Min(worst, welfare(profile))
	}
	if poa := worst / best; math.Abs(poa-1) > 1e-9 {
		t.Fatalf("PoA = %v, want 1", poa)
	}
}

// TestEnumerateNEMatchesNormalFormOracle cross-checks core's enumeration
// with the brute-force oracle on tiny uniform and mixed-budget games: the
// equilibrium sets must be equal, and under constant R (conflict regime)
// every equilibrium is welfare-optimal, PoA = 1.
func TestEnumerateNEMatchesNormalFormOracle(t *testing.T) {
	if n := len(budgetRows(3, 2)); n != 10 {
		t.Fatalf("rows of at most 2 radios over 3 channels: %d, want 1+3+6", n)
	}
	games := []struct {
		channels int
		budgets  []int
		rate     ratefn.Func
	}{
		{2, []int{1, 1}, ratefn.NewTDMA(1)},
		{2, []int{2, 2}, ratefn.NewTDMA(1)},
		{3, []int{2, 2}, ratefn.NewTDMA(1)},
		{2, []int{2, 2}, ratefn.Harmonic{R0: 1, Alpha: 1}},
		{2, []int{2, 2, 2}, ratefn.Harmonic{R0: 1, Alpha: 0.3}},
		{2, []int{2, 1}, ratefn.NewTDMA(1)},
		{3, []int{1, 2, 1}, ratefn.Harmonic{R0: 2, Alpha: 0.6}},
		{3, []int{3, 1}, ratefn.Geometric{R0: 1, Beta: 0.7}},
		{2, []int{1, 2, 2}, ratefn.NewTDMA(1)},
	}
	for _, tc := range games {
		label := fmt.Sprintf("%s C=%d budgets %v", tc.rate.Name(), tc.channels, tc.budgets)
		g, err := core.NewBudgetGame(tc.channels, tc.budgets, tc.rate)
		if err != nil {
			t.Fatal(err)
		}
		nf, rows := channelNormalForm(g)
		var want []string
		for _, profile := range nf.pureNE(core.DefaultEps) {
			m := make([][]int, len(profile))
			for i, s := range profile {
				m[i] = rows[i][s]
			}
			want = append(want, matrixKey(m))
		}
		nes, err := core.EnumerateNE(g, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(nes))
		for j, a := range nes {
			got[j] = matrixKey(a.Matrix())
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("%s: core found %d equilibria, oracle %d\ncore:   %v\noracle: %v", label, len(got), len(want), got, want)
		}
		if len(want) == 0 {
			t.Fatalf("%s: no equilibrium to compare", label)
		}
		if _, constant := tc.rate.(ratefn.Constant); constant && g.HasConflict() {
			for _, a := range nes {
				poa, err := core.PriceOfAnarchy(g, a)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(poa-1) > 1e-9 {
					t.Fatalf("%s: constant-rate NE with PoA %v, want 1\n%v", label, poa, a)
				}
			}
		}
	}
}
