package hetero

import (
	"math"
	"testing"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// The live game hands every consumer — re-equilibration, the verifier, the
// welfare and Pareto audits — its per-generation Frozen snapshot, a
// budget-vector core.Game that shares the live rate view (built with
// headroom, so its table domain is wider than the game needs). These tests
// run the mixed-budget game checks on that snapshot.

// frozenGame joins one user per budget, in order, and returns the frozen
// snapshot of the resulting generation. Dense rows follow join order, so
// user i of the snapshot owns budgets[i] radios.
func frozenGame(t *testing.T, channels int, budgets []int, r ratefn.Func) *core.Game {
	t.Helper()
	lg, err := NewLiveGame(channels, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range budgets {
		if _, err := lg.Join(k); err != nil {
			t.Fatal(err)
		}
	}
	g := lg.Frozen()
	if g == nil {
		t.Fatal("non-empty live game froze to nil")
	}
	return g
}

func TestNewGameValidation(t *testing.T) {
	r := ratefn.NewTDMA(1)
	if _, err := NewLiveGame(0, r); err == nil {
		t.Error("zero channels should error")
	}
	lg, err := NewLiveGame(3, r)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Frozen() != nil {
		t.Error("a game with no users should not freeze")
	}
	if _, err := lg.Join(0); err == nil {
		t.Error("zero budget should error")
	}
	if _, err := lg.Join(4); err == nil {
		t.Error("budget > channels should error")
	}
	if _, err := NewLiveGame(3, nil); err == nil {
		t.Error("nil rate should error")
	}
}

func TestAccessors(t *testing.T) {
	g := frozenGame(t, 4, []int{3, 1, 2}, ratefn.NewTDMA(1))
	if g.Users() != 3 || g.Channels() != 4 {
		t.Fatalf("dims %dx%d", g.Users(), g.Channels())
	}
	if g.Budget(0) != 3 || g.Budget(1) != 1 || g.Budget(2) != 2 {
		t.Fatal("budgets wrong")
	}
	budgets := g.Budgets()
	budgets[0] = 99
	if g.Budget(0) == 99 {
		t.Fatal("Budgets returned aliased storage")
	}
	if g.Uniform() {
		t.Fatal("mixed budgets froze to a uniform game")
	}
}

func TestCheckAllocBudgets(t *testing.T) {
	g := frozenGame(t, 3, []int{2, 1}, ratefn.NewTDMA(1))
	ok, err := core.AllocFromMatrix([][]int{
		{1, 1, 0},
		{0, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckAlloc(ok); err != nil {
		t.Fatalf("legal alloc rejected: %v", err)
	}
	over, err := core.AllocFromMatrix([][]int{
		{1, 1, 0},
		{1, 0, 1}, // budget 1, deploys 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckAlloc(over); err == nil {
		t.Fatal("over-budget user not rejected")
	}
	if err := g.CheckAlloc(nil); err == nil {
		t.Fatal("nil alloc not rejected")
	}
}

func TestUtilitySumEqualsWelfare(t *testing.T) {
	g := frozenGame(t, 4, []int{3, 1, 2}, ratefn.Harmonic{R0: 2, Alpha: 0.5})
	a, err := core.Algorithm1(g, core.WithTieBreak(core.TieFirst), core.WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < g.Users(); i++ {
		sum += g.Utility(a, i)
	}
	if math.Abs(sum-g.Welfare(a)) > 1e-9 {
		t.Fatalf("ΣU = %v, welfare = %v", sum, g.Welfare(a))
	}
}

func TestBestResponseErrors(t *testing.T) {
	g := frozenGame(t, 3, []int{2, 1}, ratefn.NewTDMA(1))
	a := g.NewEmptyAlloc()
	if _, _, err := g.BestResponse(a, -1); err == nil {
		t.Error("bad user should error")
	}
	if _, _, err := g.BestResponse(a, 5); err == nil {
		t.Error("bad user should error")
	}
	wrong, err := core.NewAlloc(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.BestResponse(wrong, 0); err == nil {
		t.Error("mismatched alloc should error")
	}
	if _, err := g.FindDeviation(a, -1); err == nil {
		t.Error("negative eps should error")
	}
}

func TestForEachAllocCap(t *testing.T) {
	g := frozenGame(t, 4, []int{4, 4, 4}, ratefn.NewTDMA(1))
	if err := core.ForEachAlloc(g, 10, func(*core.Alloc) bool { return true }); err == nil {
		t.Fatal("profile cap should trigger")
	}
}

func TestForEachAllocCount(t *testing.T) {
	// C=2, budgets (1,1): rows per user = 3 (empty, c1, c2) -> 9 profiles.
	g := frozenGame(t, 2, []int{1, 1}, ratefn.NewTDMA(1))
	count := 0
	if err := core.ForEachAlloc(g, 100, func(*core.Alloc) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 9 {
		t.Fatalf("enumerated %d profiles, want 9", count)
	}
}

func TestOptimalWelfareIdleAllowed(t *testing.T) {
	// 8 channels, 4 radios: light 4 channels.
	g := frozenGame(t, 8, []int{2, 1, 1}, ratefn.NewTDMA(1))
	opt, loads := core.OptimalWelfareIdleAllowed(g)
	if opt != 4 {
		t.Fatalf("optimum %v, want 4", opt)
	}
	lit := 0
	for _, l := range loads {
		if l == 1 {
			lit++
		} else if l != 0 {
			t.Fatalf("idle-allowed loads must be 0/1, got %v", loads)
		}
	}
	if lit != 4 {
		t.Fatalf("%d channels lit, want 4", lit)
	}
	// 2 channels, 5 radios: every channel lit.
	g2 := frozenGame(t, 2, []int{2, 2, 1}, ratefn.NewTDMA(1))
	if opt2, _ := core.OptimalWelfareIdleAllowed(g2); opt2 != 2 {
		t.Fatalf("optimum %v, want 2", opt2)
	}
}

// TestHeteroWelfareMemo: the frozen snapshot memoises its all-placed
// optimum like any game — the returned loads are copies and the price of
// anarchy is stable under repetition.
func TestHeteroWelfareMemo(t *testing.T) {
	g := frozenGame(t, 3, []int{2, 1, 2}, ratefn.Harmonic{R0: 1, Alpha: 1})
	wantVal, wantLoads := core.OptimalLoadWelfare(g.View().Frozen(), g.Channels(), 5)
	opt1, loads1 := core.OptimalWelfareAllPlaced(g)
	if opt1 != wantVal {
		t.Fatalf("memoised optimum %v, direct DP %v", opt1, wantVal)
	}
	loads1[0] = 99
	opt2, loads2 := core.OptimalWelfareAllPlaced(g)
	if opt2 != wantVal {
		t.Fatalf("second call optimum %v, want %v", opt2, wantVal)
	}
	for c := range wantLoads {
		if loads2[c] != wantLoads[c] {
			t.Fatalf("memo loads corrupted: %v, want %v", loads2, wantLoads)
		}
	}
	ne, err := core.Algorithm1(g, core.WithTieBreak(core.TieFirst), core.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.PriceOfAnarchy(g, ne)
	if err != nil {
		t.Fatal(err)
	}
	again, err := core.PriceOfAnarchy(g, ne)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("PoA changed between calls: %v then %v", first, again)
	}
}

// wobble is deterministic but non-monotone, forcing the MonotoneEnvelope
// to actually clamp.
type wobble struct{}

func (wobble) Rate(k int) float64 {
	if k <= 0 {
		return 0
	}
	return 3/float64(k) + 0.25*float64(k%3)
}
func (wobble) Name() string { return "wobble" }

// orbitRates covers every ratefn family, including the Table and
// MonotoneEnvelope forms.
func orbitRates(t *testing.T) []ratefn.Func {
	t.Helper()
	table, err := ratefn.NewTable("meas", []float64{5, 5, 3.5, 2.25, 2.25, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 2, Alpha: 0.6},
		ratefn.Geometric{R0: 3, Beta: 0.7},
		ratefn.Linear{R0: 2, Slope: 0.4},
		table,
		ratefn.NewMonotoneEnvelope(wobble{}),
	}
}

// unreducedEnumerateNE is the enumeration without symmetry reduction: full
// odometer over every profile, screened oracle per profile.
func unreducedEnumerateNE(t *testing.T, g *core.Game, maxProfiles int64) []*core.Alloc {
	t.Helper()
	ws := core.NewWorkspace()
	var out []*core.Alloc
	err := core.ForEachAlloc(g, maxProfiles, func(a *core.Alloc) bool {
		ne, err := g.IsNashEquilibriumWith(ws, a)
		if err != nil {
			t.Fatal(err)
		}
		if ne {
			out = append(out, a.Clone())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHeteroCanonicalMatchesUnreduced cross-checks the symmetry-reduced
// mixed-budget enumeration against the full grid for every rate family:
// expanded canonical output equals the unreduced enumeration allocation
// for allocation in order, and orbit sizes sum to the unreduced count.
// Budget vectors exercise contiguous, interleaved and singleton classes.
func TestHeteroCanonicalMatchesUnreduced(t *testing.T) {
	cases := []struct {
		channels int
		budgets  []int
	}{
		{2, []int{1, 1}},
		{3, []int{2, 2, 1}},
		{2, []int{1, 2, 1}}, // exchangeable users 0 and 2 straddle user 1
		{3, []int{1, 2, 3}}, // no two users exchangeable
		{3, []int{2, 1, 2, 1}},
		{2, []int{2, 2, 2, 2}},
	}
	for _, rate := range orbitRates(t) {
		for _, tc := range cases {
			g := frozenGame(t, tc.channels, tc.budgets, rate)
			want := unreducedEnumerateNE(t, g, 2_000_000)
			reps, err := core.EnumerateNECanonical(g, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			var orbitSum int64
			for _, rep := range reps {
				orbitSum += rep.Orbit
			}
			if orbitSum != int64(len(want)) {
				t.Fatalf("%s C=%d budgets %v: orbit sizes sum to %d, unreduced enumeration has %d equilibria",
					rate.Name(), tc.channels, tc.budgets, orbitSum, len(want))
			}
			got, err := core.EnumerateNE(g, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s C=%d budgets %v: %d equilibria, unreduced enumeration found %d",
					rate.Name(), tc.channels, tc.budgets, len(got), len(want))
			}
			for j := range got {
				if !got[j].Equal(want[j]) {
					t.Fatalf("%s C=%d budgets %v: equilibrium %d differs from unreduced order\ngot:\n%v\nwant:\n%v",
						rate.Name(), tc.channels, tc.budgets, j, got[j], want[j])
				}
			}
		}
	}
}

// TestHeteroParetoOrbitAgreesWithUnreduced cross-checks the orbit-aware
// Pareto search against the direct grid walk on every profile of small
// mixed-budget games, including a deployment whose exchangeability class is
// non-contiguous (budgets [2 1 2]: users 0 and 2 share a class around
// user 1).
func TestHeteroParetoOrbitAgreesWithUnreduced(t *testing.T) {
	table, err := ratefn.NewTable("meas", []float64{5, 5, 3.5, 2.25, 2.25, 1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	rates := []ratefn.Func{
		ratefn.NewTDMA(1),
		ratefn.Harmonic{R0: 2, Alpha: 0.6},
		table,
	}
	cases := []struct {
		channels int
		budgets  []int
	}{
		{2, []int{1, 2}},
		{2, []int{1, 1, 2}},
		{3, []int{2, 1, 2}},
	}
	for _, rate := range rates {
		for _, tc := range cases {
			g := frozenGame(t, tc.channels, tc.budgets, rate)
			var bases []*core.Alloc
			if err := core.ForEachAlloc(g, 5_000_000, func(b *core.Alloc) bool {
				bases = append(bases, b.Clone())
				return true
			}); err != nil {
				t.Fatal(err)
			}
			for _, a := range bases {
				want, err := core.FindParetoImprovementUnreduced(g, a, core.DefaultEps, 5_000_000)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.FindParetoImprovement(g, a, core.DefaultEps, 5_000_000)
				if err != nil {
					t.Fatal(err)
				}
				if (want == nil) != (got == nil) {
					t.Fatalf("%s %v/%d: orbit search found %v, unreduced found %v for base\n%v",
						rate.Name(), tc.budgets, tc.channels, got != nil, want != nil, a)
				}
				if got == nil {
					continue
				}
				if err := g.CheckAlloc(got); err != nil {
					t.Fatalf("%s %v/%d: witness is not a legal allocation: %v",
						rate.Name(), tc.budgets, tc.channels, err)
				}
				base := g.Utilities(a)
				strict := false
				for i := range base {
					u := g.Utility(got, i)
					if u < base[i]-core.DefaultEps {
						t.Fatalf("%s %v/%d: witness hurts user %d: %v < %v\n%v",
							rate.Name(), tc.budgets, tc.channels, i, u, base[i], got)
					}
					if u > base[i]+core.DefaultEps {
						strict = true
					}
				}
				if !strict {
					t.Fatalf("%s %v/%d: witness improves nobody strictly\n%v",
						rate.Name(), tc.budgets, tc.channels, got)
				}
			}
		}
	}
}
