package mechanism

import "math"

// Level-table memoisation of the exponential mechanism's weights. Every
// weight loop of the Definition 5 mechanism evaluates exp(scale·(x-u_max))
// once per entry, yet the paper's count utilities (common neighbours,
// degree) take only the integer values 0..u_max, usually with u_max far
// below the support size. For such a vector the weights are computed once
// per level and looked up per entry. Because x is exactly float64(l) at its
// level l, the table entry exp(scale·(float64(l)-u_max)) is the very
// expression the per-entry loop evaluates: every weight, prefix sum and
// draw is bit-identical, so the table changes no fixed-seed output. Any
// other vector (fractional utilities such as weighted paths, Jaccard and
// PageRank, or a large u_max) runs the plain per-entry loop.

// maxLevels bounds the memoised levels: u_max must lie below it. The table
// is a fixed-size array so it lives on the caller's stack (4 KB) and adds
// no heap.
const maxLevels = 512

// levelWeights yields the exponential weights exp(scale·(x-umax)) of one
// vector, from the level table when it holds them and per entry otherwise.
// The zero value holds no table.
type levelWeights struct {
	scale, umax float64
	levels      int // umax+1 while tab holds the weights; 0 selects math.Exp
	tab         [maxLevels]float64
}

// init points w at the validated utilities val under scale and returns
// their maximum u_max, taken over val and 0. Validated utilities are
// finite and non-negative, so this is also the maximum of a dense vector.
// The table is used only when it is exact (every value an integer level,
// u_max < maxLevels) and cheaper than per-entry exps (its u_max+1 exps do
// not exceed len(val)). It is rebuilt only when it does not already hold
// (scale, u_max), so the top-k peel, which re-inits after taking an entry
// at u_max, rebuilds it only when u_max actually fell.
func (w *levelWeights) init(val []float64, scale float64) float64 {
	umax := 0.0
	for _, x := range val {
		if x > umax {
			umax = x
		}
	}
	if !(umax < maxLevels) || umax >= float64(len(val)) || !allLevels(val) {
		w.levels = 0
	} else if w.levels == 0 || w.scale != scale || w.umax != umax {
		w.levels = int(umax) + 1
		for l := range w.levels {
			w.tab[l] = math.Exp(scale * (float64(l) - umax))
		}
	}
	w.scale, w.umax = scale, umax
	return umax
}

// allLevels reports whether every value is an integer level, a non-negative
// integer whose float64(int(x)) is x itself. It stops at the first value
// that is not, so a fractional vector pays next to nothing for the check.
func allLevels(val []float64) bool {
	for _, x := range val {
		if x < 0 || x != float64(int(x)) {
			return false
		}
	}
	return true
}

// extendCDF appends the running sums of val's weights to cdf, which must
// already hold them for val[:len(cdf)]: afterwards cdf[i] = Σ_{j<=i}
// exp(scale·(val_j - u_max)) for every i < len(val). The sums accumulate
// left to right, so a kept prefix continues exactly as a fresh
// accumulation from an empty cdf would.
func (w *levelWeights) extendCDF(cdf, val []float64) []float64 {
	var acc float64
	if len(cdf) > 0 {
		acc = cdf[len(cdf)-1]
	}
	if w.levels > 0 {
		for _, x := range val[len(cdf):] {
			acc += w.tab[int(x)]
			cdf = append(cdf, acc)
		}
		return cdf
	}
	for _, x := range val[len(cdf):] {
		acc += math.Exp(w.scale * (x - w.umax))
		cdf = append(cdf, acc)
	}
	return cdf
}

// weights stores the weight of val[i] in dst[i] and returns their sum,
// accumulated left to right.
func (w *levelWeights) weights(dst, val []float64) float64 {
	var z float64
	if w.levels > 0 {
		for i, x := range val {
			dst[i] = w.tab[int(x)]
			z += dst[i]
		}
		return z
	}
	for i, x := range val {
		wt := math.Exp(w.scale * (x - w.umax))
		dst[i] = wt
		z += wt
	}
	return z
}

// sum returns the sum of val's weights, accumulated left to right.
func (w *levelWeights) sum(val []float64) float64 {
	var z float64
	if w.levels > 0 {
		for _, x := range val {
			z += w.tab[int(x)]
		}
		return z
	}
	for _, x := range val {
		z += math.Exp(w.scale * (x - w.umax))
	}
	return z
}

// crossing accumulates val's weights left to right and returns the index
// of the first entry whose running sum exceeds target, or len(val) if
// none does.
func (w *levelWeights) crossing(val []float64, target float64) int {
	var acc float64
	if w.levels > 0 {
		for i, x := range val {
			if acc += w.tab[int(x)]; acc > target {
				return i
			}
		}
		return len(val)
	}
	for i, x := range val {
		if acc += math.Exp(w.scale * (x - w.umax)); acc > target {
			return i
		}
	}
	return len(val)
}
