package core

import (
	"fmt"
	"math"

	"github.com/multiradio/chanalloc/internal/combin"
	"github.com/multiradio/chanalloc/internal/ratefn"
)

// OptimalWelfareAllPlaced computes the maximum achievable total rate
// Σ_{c : l_c > 0} R(l_c) over load vectors that place all Σ_i k_i radios
// (Lemma 1 forces full deployment in equilibrium, so this is the natural
// welfare benchmark for NE comparisons). It returns the optimum and one
// optimising load vector (a fresh copy). The DP runs once per game and is
// memoised (see Game.allPlacedOptimum); repeated calls are a memo read.
func OptimalWelfareAllPlaced(g *Game) (float64, []int) {
	opt, loads := g.allPlacedOptimum()
	return opt, append([]int(nil), loads...)
}

// OptimalLoadWelfare maximises Σ_{c : l_c > 0} R(l_c) over load vectors on
// C channels placing exactly total radios — the welfare optimum depends on
// the load vector alone, so every game reduces to this dynamic program
// with total = Σ_i k_i. It returns
// the optimum and one optimising load vector.
//
// One-shot convenience form of OptimalLoadWelfareInto: a fresh workspace
// and copied loads. Hot loops hold a Workspace and call the Into form.
func OptimalLoadWelfare(rate ratefn.Func, C, total int) (float64, []int) {
	val, loads := OptimalLoadWelfareInto(NewWorkspace(), rate, C, total)
	return val, append(make([]int, 0, len(loads)), loads...)
}

// OptimalLoadWelfareInto is the welfare dynamic program in the caller's
// workspace: O(|C| · T²) for T total radios, zero steady-state allocations,
// returned loads aliasing ws (copy to retain past the next welfare call).
//
// The recurrence f[c][t] = max_l R(l) + f[c+1][t-l] runs over flat
// contiguous slabs with the -Inf "leftover radios" sentinel hoisted out
// entirely: the base row C-1 must place everything it is given (only l = t
// leaves no leftovers), so f[C-1][t] = R(t) and every remaining row folds
// purely finite values — the inner loop is a branch-reduced max over two
// contiguous slices, with rates pre-sampled once into a slab. Values and
// argmax loads are bit-identical to the former per-row form: an O(|C|·T)
// traceback rescans each chosen cell for the first l attaining its value,
// which is exactly the argmax the old strict-> scan recorded.
//
// Degenerate domains are decided up front (the old per-row allocation
// could index an empty choice row): zero channels place nothing — welfare
// 0 for total == 0, -Inf (infeasible) otherwise — and a negative total is
// -Inf with an all-zero load vector.
func OptimalLoadWelfareInto(ws *Workspace, rate ratefn.Func, C, total int) (float64, []int) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if C <= 0 {
		if total == 0 {
			return 0, ws.wload[:0]
		}
		return math.Inf(-1), ws.wload[:0]
	}
	if total < 0 {
		_, _, loads := ws.ensureWelfare(C, 0)
		for c := range loads {
			loads[c] = 0
		}
		return math.Inf(-1), loads
	}
	rates, f, loads := ws.ensureWelfare(C, total)
	for l := 0; l <= total; l++ {
		rates[l] = rate.Rate(l)
	}
	stride := total + 1
	copy(f[(C-1)*stride:C*stride], rates)
	for c := C - 2; c >= 0; c-- {
		cur := f[c*stride : c*stride+stride]
		next := f[(c+1)*stride : (c+1)*stride+stride]
		for t := 0; t <= total; t++ {
			best := rates[0] + next[t]
			for l := 1; l <= t; l++ {
				if val := rates[l] + next[t-l]; val > best {
					best = val
				}
			}
			cur[t] = best
		}
	}
	t := total
	for c := 0; c < C-1; c++ {
		next := f[(c+1)*stride:]
		target := f[c*stride+t]
		l := 0
		for ; l < t; l++ {
			if rates[l]+next[t-l] == target {
				break
			}
		}
		loads[c] = l
		t -= l
	}
	loads[C-1] = t
	return f[total], loads
}

// OptimalWelfareIdleAllowed computes the maximum total rate when radios may
// be left idle. Because R is non-increasing with R(1) maximal, the optimum
// simply lights up min(|C|, Σ_i k_i) channels with one radio each.
func OptimalWelfareIdleAllowed(g *Game) (float64, []int) {
	lit := g.Channels()
	if g.total < lit {
		lit = g.total
	}
	loads := make([]int, g.Channels())
	for c := 0; c < lit; c++ {
		loads[c] = 1
	}
	return float64(lit) * g.Rate().Rate(1), loads
}

// PriceOfAnarchy returns welfare(a) / optimalWelfare for the all-placed
// benchmark. 1 means the allocation is system-optimal. Returns an error if
// the optimum is non-positive (degenerate rate function). The optimum is
// the game's memo, so per-allocation cost is one O(|C|) welfare fold.
func PriceOfAnarchy(g *Game, a *Alloc) (float64, error) {
	opt, _ := g.allPlacedOptimum()
	if opt <= 0 {
		return 0, fmt.Errorf("core: degenerate optimum %v; rate function is zero everywhere", opt)
	}
	return g.Welfare(a) / opt, nil
}

// strategyRows materialises every user's legal strategy rows: all radio
// vectors over |C| channels with total between 0 and k_i. Equal-budget
// users receive the SAME table slice — the exchangeability contract of the
// orbit enumerator — so a uniform game builds one table.
func strategyRows(g *Game) ([][][]int, error) {
	byBudget := make(map[int][][]int, 4)
	rows := make([][][]int, g.Users())
	for i, k := range g.budgets {
		if table, ok := byBudget[k]; ok {
			rows[i] = table
			continue
		}
		var table [][]int
		for total := 0; total <= k; total++ {
			err := combin.Compositions(total, g.channels, func(row []int) bool {
				table = append(table, append([]int(nil), row...))
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		byBudget[k] = table
		rows[i] = table
	}
	return rows, nil
}

// checkProfileCap verifies the full profile count Π_i perUser[i] stays
// within maxProfiles. The guard divides instead of multiplying so the
// running product can never overflow int64: totalProfiles >
// maxProfiles/perUser (integer division) implies totalProfiles·perUser >
// maxProfiles, and otherwise the product is at most maxProfiles.
func checkProfileCap(perUser []int64, maxProfiles int64) error {
	totalProfiles := int64(1)
	for _, n := range perUser {
		if n <= 0 {
			return fmt.Errorf("core: non-positive strategy count %d per user", n)
		}
		if totalProfiles > maxProfiles/n {
			return fmt.Errorf("core: strategy space too large (> %d profiles)", maxProfiles)
		}
		totalProfiles *= n
	}
	if totalProfiles > maxProfiles {
		return fmt.Errorf("core: strategy space has %d profiles, cap is %d", totalProfiles, maxProfiles)
	}
	return nil
}

// cappedStrategyRows is strategyRows guarded by checkProfileCap: the
// preamble of every exhaustive search.
func cappedStrategyRows(g *Game, maxProfiles int64) ([][][]int, error) {
	rows, err := strategyRows(g)
	if err != nil {
		return nil, err
	}
	counts := make([]int64, len(rows))
	for i, table := range rows {
		counts[i] = int64(len(table))
	}
	if err := checkProfileCap(counts, maxProfiles); err != nil {
		return nil, err
	}
	return rows, nil
}

// ForEachAlloc enumerates every legal strategy matrix of the game (all
// users, all totals up to each budget) and calls fn with a reused Alloc that fn must
// treat as read-only. Returning false stops the enumeration. This is
// exponential — it exists for the exhaustive oracles on tiny instances
// (experiment E2) and refuses to run when the strategy space exceeds
// maxProfiles.
//
// The walk is odometer-aware: between consecutive profiles only the user
// rows whose odometer digit changed are re-set (usually just the last
// user), instead of rewriting all |N| rows per profile.
func ForEachAlloc(g *Game, maxProfiles int64, fn func(*Alloc) bool) error {
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return err
	}
	sizes := make([]int, len(rows))
	for i, table := range rows {
		sizes[i] = len(table)
	}
	return productWalk(g.NewEmptyAlloc(), sizes, func(u, ri int) []int { return rows[u][ri] }, fn)
}

// productWalk enumerates the cartesian product of per-user strategy
// indices, setting the rows of a and calling fn with the reused
// allocation, which fn must treat as read-only. The walk is
// odometer-aware: between consecutive profiles only rows whose index
// changed are re-set (usually just the last user's). rowFor maps (user,
// index) to that user's strategy row; rows are pre-validated by callers,
// but an invariant-breaking allocation must stop the walk loudly rather
// than truncate it.
func productWalk(a *Alloc, sizes []int, rowFor func(user, idx int) []int, fn func(*Alloc) bool) error {
	prev := make([]int, len(sizes))
	for i := range prev {
		prev[i] = -1
	}
	var setErr error
	err := combin.Product(sizes, func(idx []int) bool {
		for u, ri := range idx {
			if ri == prev[u] {
				continue
			}
			if err := a.SetRow(u, rowFor(u, ri)); err != nil {
				setErr = fmt.Errorf("core: setting row for user %d: %w", u, err)
				return false
			}
			prev[u] = ri
		}
		return fn(a)
	})
	if err != nil {
		return err
	}
	return setErr
}

// EnumerateNE collects every Nash equilibrium of a tiny game by exhaustive
// best-response checking (results and order are identical to walking the
// full profile grid and checking IsNashEquilibrium per profile). Intended
// for cross-validation tests; guarded by maxProfiles like ForEachAlloc.
//
// Internally the search is symmetry-reduced: users of equal budget are
// exchangeable, so only canonical orbit representatives are tested (see
// EnumerateNECanonical) and the full equilibrium set is reconstructed by
// orbit expansion — same allocations, same order, visiting a C(R+N-1, N)
// canonical space instead of the R^N grid.
func EnumerateNE(g *Game, maxProfiles int64) ([]*Alloc, error) {
	reps, err := EnumerateNECanonical(g, maxProfiles)
	if err != nil {
		return nil, err
	}
	return ExpandNEOrbits(g, reps)
}

// FindParetoImprovement searches for an allocation that makes every user
// at least as well off as in a and at least one user strictly better
// (within tolerance eps on both comparisons, exactly as the unreduced
// scan: hurt iff u < base-eps, strict iff u > base+eps). It returns nil if
// a is Pareto-optimal over the full strategy space. Exponential; guarded
// by maxProfiles against the FULL unreduced profile count, so refusal
// behaviour matches ForEachAlloc.
//
// The search is symmetry-reduced: equal-budget users are exchangeable, so
// only canonical orbit representatives are visited and each whole orbit is
// decided by one per-class utility matching test (see
// OrbitEnumerator.ParetoImprovement). An improvement is found iff the
// unreduced search finds one; the returned witness — the representative
// with its rows permuted along the matching — is always a valid
// improvement, though not necessarily the same orbit member the unreduced
// scan would hit first. FindParetoImprovementUnreduced keeps the direct
// grid walk as the differential baseline.
func FindParetoImprovement(g *Game, a *Alloc, eps float64, maxProfiles int64) (*Alloc, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	rows, err := cappedStrategyRows(g, maxProfiles)
	if err != nil {
		return nil, err
	}
	return g.orbitEnumerator(rows).ParetoImprovement(g.Utilities(a), eps)
}

// FindParetoImprovementUnreduced is the direct R^N-grid Pareto search:
// every profile is tested user by user, bailing on the first hurt user.
// Kept as the differential baseline and benchmark denominator for the
// orbit-aware FindParetoImprovement.
func FindParetoImprovementUnreduced(g *Game, a *Alloc, eps float64, maxProfiles int64) (*Alloc, error) {
	if err := g.CheckAlloc(a); err != nil {
		return nil, err
	}
	base := g.Utilities(a)
	var found *Alloc
	err := ForEachAlloc(g, maxProfiles, func(b *Alloc) bool {
		strict := false
		for i := range base {
			u := g.Utility(b, i)
			if u < base[i]-eps {
				return true // someone is hurt; keep searching
			}
			if u > base[i]+eps {
				strict = true
			}
		}
		if strict {
			found = b.Clone()
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}
