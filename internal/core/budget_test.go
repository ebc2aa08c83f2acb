package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/multiradio/chanalloc/internal/des"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// Mixed-budget games: user i owns k_i radios. The paper's model is the
// uniform case; these tests pin how far its results carry beyond it
// (experiment E11) and that the uniform-only checks refuse to judge.

// greedy runs Algorithm 1 with an explicit tie-break and seed.
func greedy(t *testing.T, g *Game, tie TieBreak, seed uint64) *Alloc {
	t.Helper()
	a, err := Algorithm1(g, WithTieBreak(tie), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestUtilityMatchesUniformCore(t *testing.T) {
	// A budget vector of equal entries is the uniform game exactly.
	bg := mustBudgetGame(t, 5, []int{4, 4, 4, 4}, ratefn.NewTDMA(1))
	cg := mustGame(t, 4, 5, 4, ratefn.NewTDMA(1))
	a := mustAlloc(t, figure1Matrix())
	for i := 0; i < 4; i++ {
		if math.Abs(bg.Utility(a, i)-cg.Utility(a, i)) > 1e-12 {
			t.Errorf("u%d: budget game %v vs uniform game %v", i+1, bg.Utility(a, i), cg.Utility(a, i))
		}
	}
	if math.Abs(bg.Welfare(a)-cg.Welfare(a)) > 1e-12 {
		t.Error("welfare mismatch with the uniform game")
	}
	if !bg.Uniform() || bg.Radios() != cg.Radios() || bg.HasConflict() != cg.HasConflict() {
		t.Error("equal budgets must build a uniform game")
	}
}

func TestAlgorithm1HeteroIsNE(t *testing.T) {
	// E11 headline: sequential greedy with mixed budgets still lands on
	// exact Nash equilibria, across rate shapes and random budget mixes.
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 1, Alpha: 0.5},
		ratefn.Geometric{R0: 1, Beta: 0.7},
	}
	for _, r := range rates {
		for seed := uint64(0); seed < 20; seed++ {
			rng := des.NewRNG(seed)
			channels := 2 + rng.Intn(5)
			users := 1 + rng.Intn(5)
			budgets := make([]int, users)
			for i := range budgets {
				budgets[i] = 1 + rng.Intn(channels)
			}
			g := mustBudgetGame(t, channels, budgets, r)
			a := greedy(t, g, TieRandom, seed)
			if v := CheckLemma1(g, a); v != nil {
				t.Fatalf("%s seed %d: not full deployment: %v", r.Name(), seed, v)
			}
			ne, err := g.IsNashEquilibrium(a)
			if err != nil {
				t.Fatal(err)
			}
			if !ne {
				dev, _ := g.FindDeviation(a, DefaultEps)
				t.Fatalf("%s seed %d budgets %v: not NE: %v\n%v", r.Name(), seed, budgets, dev, a)
			}
		}
	}
}

func TestHeteroNEPropertiesExhaustive(t *testing.T) {
	// Generalised Lemma 1 and Proposition 1: on tiny mixed-budget games
	// with positive constant rate, every exact NE deploys all budgets and
	// keeps channel loads within one.
	configs := []struct {
		channels int
		budgets  []int
	}{
		{2, []int{2, 1}},
		{3, []int{2, 1}},
		{3, []int{3, 1, 1}},
		{2, []int{2, 2, 1}},
	}
	for _, cfg := range configs {
		g := mustBudgetGame(t, cfg.channels, cfg.budgets, ratefn.NewTDMA(1))
		nes, err := EnumerateNE(g, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(nes) == 0 {
			t.Fatalf("C=%d budgets %v: no NE", cfg.channels, cfg.budgets)
		}
		for _, ne := range nes {
			if v := CheckLemma1(g, ne); v != nil {
				t.Errorf("C=%d budgets %v: NE with idle radios (%v):\n%v", cfg.channels, cfg.budgets, v, ne)
			}
			if v := CheckProposition1(g, ne); v != nil {
				t.Errorf("C=%d budgets %v: unbalanced NE (%v):\n%v", cfg.channels, cfg.budgets, v, ne)
			}
		}
	}
}

func TestBestResponseRespectsBudget(t *testing.T) {
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		channels := 2 + rng.Intn(4)
		budgets := []int{1 + rng.Intn(channels), 1 + rng.Intn(channels)}
		g, err := NewBudgetGame(channels, budgets, ratefn.NewTDMA(1))
		if err != nil {
			return false
		}
		a, err := Algorithm1(g)
		if err != nil {
			return false
		}
		for i := 0; i < g.Users(); i++ {
			row, _, err := g.BestResponse(a, i)
			if err != nil {
				return false
			}
			total := 0
			for _, x := range row {
				total += x
			}
			if total > g.Budget(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedBudgetsFairness(t *testing.T) {
	// A user with twice the radios should earn roughly twice the rate at a
	// balanced NE under constant R (its radios sit on equally loaded
	// channels).
	g := mustBudgetGame(t, 6, []int{4, 2, 4, 2}, ratefn.NewTDMA(1))
	a := greedy(t, g, TieFirst, 0)
	ne, err := g.IsNashEquilibrium(a)
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		t.Fatal("mixed-budget Algorithm 1 output not NE")
	}
	u := g.Utilities(a)
	ratio := u[0] / u[1]
	if ratio < 1.5 || ratio > 2.5 {
		t.Fatalf("4-radio vs 2-radio utility ratio %v, want ~2", ratio)
	}
}

func TestAlgorithm1HeteroOrderMatters(t *testing.T) {
	// Placing the big-budget user first or last changes the matrix but not
	// the NE property.
	for _, budgets := range [][]int{{4, 1, 1}, {1, 1, 4}} {
		g := mustBudgetGame(t, 4, budgets, ratefn.NewTDMA(1))
		ne, err := g.IsNashEquilibrium(greedy(t, g, TieFirst, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !ne {
			t.Fatalf("budgets %v: not NE", budgets)
		}
	}
}

func TestOptimalWelfareAllPlaced(t *testing.T) {
	// 4 channels, budgets 2+1+1 = 4 radios, constant R: the optimum spreads
	// one radio per channel, welfare 4·R(1).
	g := mustBudgetGame(t, 4, []int{2, 1, 1}, ratefn.NewTDMA(1))
	opt, loads := OptimalWelfareAllPlaced(g)
	if opt != 4 {
		t.Fatalf("optimum %v, want 4", opt)
	}
	placed := 0
	for _, l := range loads {
		placed += l
	}
	if placed != 4 {
		t.Fatalf("optimising loads place %d radios, want 4", placed)
	}
	// More radios than channels under sharp decay: the DP must still place
	// everything and agree with the uniform game on the same totals.
	h := ratefn.Harmonic{R0: 1, Alpha: 1}
	optH, loadsH := OptimalWelfareAllPlaced(mustBudgetGame(t, 3, []int{3, 2, 1}, h)) // 6 radios over 3 channels
	optU, _ := OptimalWelfareAllPlaced(mustGame(t, 3, 3, 2, h))                      // same 6 radios over 3 channels
	if optH != optU {
		t.Fatalf("mixed-budget optimum %v disagrees with uniform DP %v on equal totals", optH, optU)
	}
	placed = 0
	for _, l := range loadsH {
		placed += l
	}
	if placed != 6 {
		t.Fatalf("optimising loads place %d radios, want 6", placed)
	}
}

func TestHeteroPriceOfAnarchy(t *testing.T) {
	// The sequential greedy NE is welfare-optimal under constant R whenever
	// total radios exceed channels (every channel stays lit).
	g := mustBudgetGame(t, 4, []int{4, 2, 1}, ratefn.NewTDMA(1))
	poa, err := PriceOfAnarchy(g, greedy(t, g, TieFirst, 0))
	if err != nil {
		t.Fatal(err)
	}
	if poa != 1 {
		t.Fatalf("constant-R PoA %v, want 1", poa)
	}
	// Under decaying R the NE stays within (0, 1] of the optimum.
	gh := mustBudgetGame(t, 4, []int{4, 2, 1}, ratefn.Harmonic{R0: 1, Alpha: 0.5})
	poaH, err := PriceOfAnarchy(gh, greedy(t, gh, TieFirst, 0))
	if err != nil {
		t.Fatal(err)
	}
	if poaH <= 0 || poaH > 1 {
		t.Fatalf("harmonic PoA %v outside (0, 1]", poaH)
	}
}

// TestUniformOnlyChecksRefuseMixedBudgets pins that the paper's
// uniform-budget results never return a silent verdict on a mixed game:
// Lemmas 2-4 and Theorem 1 answer with a "uniform" violation, while the
// budget-free checks (Lemma 1, Proposition 1) still judge.
func TestUniformOnlyChecksRefuseMixedBudgets(t *testing.T) {
	g := mustBudgetGame(t, 5, []int{3, 2, 1}, ratefn.NewTDMA(1))
	a := greedy(t, g, TieFirst, 0)
	for name, check := range map[string]func(*Game, *Alloc) *Violation{
		"lemma2": CheckLemma2, "lemma3": CheckLemma3, "lemma4": CheckLemma4,
	} {
		v := check(g, a)
		if v == nil || v.Rule != "uniform" || !strings.Contains(v.Detail, name) {
			t.Errorf("%s on mixed budgets = %v, want a uniform violation naming it", name, v)
		}
	}
	ok, v := TheoremNE(g, a)
	if ok || v == nil || v.Rule != "uniform" {
		t.Errorf("TheoremNE on mixed budgets = %v, %v; want false with a uniform violation", ok, v)
	}
	if v := CheckLemma1(g, a); v != nil {
		t.Errorf("greedy allocation deploys every budget, got %v", v)
	}
	if v := CheckProposition1(g, a); v != nil {
		t.Errorf("greedy allocation is load-balanced, got %v", v)
	}
	short := mustAlloc(t, [][]int{{1, 1, 0, 0, 0}, {0, 0, 1, 1, 0}, {0, 0, 0, 0, 1}})
	if v := CheckLemma1(g, short); v == nil || v.User != 0 || v.Rule != "lemma1" {
		t.Errorf("user 0 deploys 2 of 3 radios: lemma1 = %v", v)
	}
	// A uniform game built from a budget vector is judged as before.
	u := mustBudgetGame(t, 5, []int{4, 4, 4, 4}, ratefn.NewTDMA(1))
	want := CheckAllLemmas(mustGame(t, 4, 5, 4, ratefn.NewTDMA(1)), mustAlloc(t, figure1Matrix()))
	got := CheckAllLemmas(u, mustAlloc(t, figure1Matrix()))
	if len(got) != len(want) {
		t.Fatalf("uniform budget vector: %d violations, NewGame gives %d", len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Errorf("violation %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestParallelSearchesMixedBudgets: the sharded enumerator and Pareto
// search reproduce the serial output on mixed budgets, where users 0 and 1
// have row tables of different sizes.
func TestParallelSearchesMixedBudgets(t *testing.T) {
	for _, budgets := range [][]int{{1, 2, 1}, {2, 1, 2, 1}, {3, 1}} {
		g := mustBudgetGame(t, 3, budgets, ratefn.Harmonic{R0: 2, Alpha: 0.6})
		want, err := EnumerateNE(g, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 5} {
			got, err := EnumerateNEParallel(g, 2_000_000, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("budgets %v workers %d: %d equilibria, serial %d", budgets, workers, len(got), len(want))
			}
			for j := range got {
				if !got[j].Equal(want[j]) {
					t.Fatalf("budgets %v workers %d: equilibrium %d differs", budgets, workers, j)
				}
			}
		}
		base := g.NewEmptyAlloc()
		wantW, err := FindParetoImprovement(g, base, DefaultEps, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 5} {
			gotW, err := FindParetoImprovementParallel(g, base, DefaultEps, 2_000_000, workers)
			if err != nil {
				t.Fatal(err)
			}
			if (gotW == nil) != (wantW == nil) || (gotW != nil && !gotW.Equal(wantW)) {
				t.Fatalf("budgets %v workers %d: parallel witness %v, serial %v", budgets, workers, gotW, wantW)
			}
		}
	}
}
