package mechanism

import (
	"fmt"
	"math/rand"
)

// Exponential is the exponential mechanism of Definition 5 (McSherry &
// Talwar adapted to social recommendations): candidate i is recommended with
// probability proportional to exp((ε/Δf)·u_i), where Δf is the utility
// function's sensitivity. With Δf an upper bound on twice the per-entry
// change of the utility vector under a single edge flip (which every
// utility.Function in this repository guarantees), the mechanism is
// ε-differentially private (Theorem 4).
type Exponential struct {
	// Epsilon is the privacy parameter ε > 0.
	Epsilon float64
	// Sensitivity is Δf > 0 for the utility function in use.
	Sensitivity float64
}

// Name implements Mechanism.
func (e Exponential) Name() string { return fmt.Sprintf("exponential(eps=%g)", e.Epsilon) }

func (e Exponential) validate() error {
	if !(e.Epsilon > 0) {
		return ErrBadEpsilon
	}
	if !(e.Sensitivity > 0) {
		return ErrBadSens
	}
	return nil
}

// Probabilities implements Distribution. Weights are computed relative to
// the maximum utility for numeric stability: exp((ε/Δf)(u_i - u_max)) never
// overflows and underflows only for hopeless candidates.
func (e Exponential) Probabilities(u []float64) ([]float64, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if err := validate(u); err != nil {
		return nil, err
	}
	var lw levelWeights
	lw.init(u, e.Epsilon/e.Sensitivity)
	p := make([]float64, len(u))
	z := lw.weights(p, u)
	for i := range p {
		p[i] /= z
	}
	return p, nil
}

// appendCDF writes the cumulative unnormalized exponential weights of u
// into dst's storage (callers pass zero-length scratch):
// cdf[i] = Σ_{j<=i} exp(scale·(u_j - u_max)), read from the level table
// when u's values are small integer levels. It is the weight loop behind
// Recommend and CDF, which must stay bit-identical for cached CDF sampling
// to reproduce uncached draws exactly.
func appendCDF(dst, u []float64, scale float64) []float64 {
	var lw levelWeights
	lw.init(u, scale)
	return lw.extendCDF(dst[:0], u)
}

// Recommend implements Mechanism by inverse-CDF sampling from the
// closed-form distribution. The cumulative weight vector lives in pooled
// scratch, so steady-state serving does not allocate.
func (e Exponential) Recommend(u []float64, rng *rand.Rand) (int, error) {
	if err := e.validate(); err != nil {
		return 0, err
	}
	if err := validate(u); err != nil {
		return 0, err
	}
	handle, w := getScratch(len(u))
	defer putScratch(handle)
	return SampleCDF(appendCDF(w, u, e.Epsilon/e.Sensitivity), rng), nil
}

// CDF returns the cumulative unnormalized exponential weights of u:
// cdf[i] = Σ_{j<=i} exp((ε/Δf)(u_j - u_max)). Together with SampleCDF it
// factors Recommend into a cacheable precomputation and an O(log n) draw
// that consumes the same single rng.Float64() and returns bit-identical
// indices to Recommend, so serving layers can precompute the CDF per target
// without altering the mechanism's output distribution.
func (e Exponential) CDF(u []float64) ([]float64, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if err := validate(u); err != nil {
		return nil, err
	}
	return appendCDF(make([]float64, 0, len(u)), u, e.Epsilon/e.Sensitivity), nil
}

// SampleCDF draws a candidate index from a cumulative weight vector
// produced by CDF. It performs the same inverse-CDF inversion as Recommend
// (identical prefix sums, identical comparison), via binary search.
func SampleCDF(cdf []float64, rng *rand.Rand) int {
	target := rng.Float64() * cdf[len(cdf)-1]
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cdf[mid] > target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // rounding falls through to the last candidate
}
