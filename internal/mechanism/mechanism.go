// Package mechanism implements the recommendation algorithms the paper
// studies: the optimal non-private recommender R_best, the uniform baseline,
// the Exponential mechanism (Definition 5), the Laplace mechanism
// (Definition 6), and the sampling/linear-smoothing mechanism A_S(x) of
// Appendix F. A mechanism maps a utility vector (one entry per candidate
// node) to either a single sampled recommendation or, when it admits one, a
// closed-form probability vector.
//
// Accuracy follows Definition 2 of the paper: the expected utility of the
// mechanism's recommendation divided by u_max, the utility R_best attains.
package mechanism

import (
	"errors"
	"math"
	"math/rand"
)

// Errors shared by the mechanism implementations.
var (
	ErrEmpty        = errors.New("mechanism: empty utility vector")
	ErrNegative     = errors.New("mechanism: negative utility")
	ErrNotFinite    = errors.New("mechanism: utility is NaN or infinite")
	ErrBadEpsilon   = errors.New("mechanism: epsilon must be positive")
	ErrBadSens      = errors.New("mechanism: sensitivity must be positive")
	ErrNoCandidates = errors.New("mechanism: all utilities are zero")
)

// Mechanism selects one candidate index given a utility vector. Randomized
// mechanisms consume the provided RNG; deterministic ones ignore it.
type Mechanism interface {
	// Name returns a short stable identifier.
	Name() string
	// Recommend returns the index of the recommended candidate.
	Recommend(u []float64, rng *rand.Rand) (int, error)
}

// Distribution is implemented by mechanisms whose recommendation
// probabilities have a closed form; it enables exact expected-accuracy
// computation (the paper computes the Exponential mechanism's accuracy
// "from the definition directly", §7.1).
type Distribution interface {
	Mechanism
	// Probabilities returns the probability of recommending each candidate.
	// The result sums to 1 (up to floating point) and is non-negative.
	Probabilities(u []float64) ([]float64, error)
}

func validate(u []float64) error {
	if len(u) == 0 {
		return ErrEmpty
	}
	return checkUtilities(u)
}

// checkUtilities rejects negative, NaN and infinite utilities: every
// mechanism's weights, noise and accuracy assume finite non-negative
// scores, and a NaN would otherwise slip past every comparison.
func checkUtilities(u []float64) error {
	for _, x := range u {
		if x < 0 {
			return ErrNegative
		}
		if !(x <= math.MaxFloat64) {
			return ErrNotFinite
		}
	}
	return nil
}

// argmax returns the index of the maximum entry, breaking ties uniformly at
// random when rng is non-nil and toward the lowest index otherwise.
func argmax(u []float64, rng *rand.Rand) int {
	best := 0
	ties := 1
	for i := 1; i < len(u); i++ {
		switch {
		case u[i] > u[best]:
			best = i
			ties = 1
		case u[i] == u[best]:
			ties++
			if rng != nil && rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// Best is R_best, the optimal non-private recommender: it always recommends
// a maximum-utility candidate (uniformly among ties). It attains accuracy 1
// by construction and satisfies no finite differential privacy guarantee.
type Best struct{}

// Name implements Mechanism.
func (Best) Name() string { return "best" }

// Recommend implements Mechanism.
func (Best) Recommend(u []float64, rng *rand.Rand) (int, error) {
	if err := validate(u); err != nil {
		return 0, err
	}
	return argmax(u, rng), nil
}

// Probabilities implements Distribution: mass 1 split uniformly over the
// maximum-utility candidates.
func (Best) Probabilities(u []float64) ([]float64, error) {
	if err := validate(u); err != nil {
		return nil, err
	}
	max := u[0]
	for _, x := range u[1:] {
		if x > max {
			max = x
		}
	}
	ties := 0
	for _, x := range u {
		if x == max {
			ties++
		}
	}
	p := make([]float64, len(u))
	for i, x := range u {
		if x == max {
			p[i] = 1 / float64(ties)
		}
	}
	return p, nil
}

// Uniform recommends every candidate with equal probability. It is
// perfectly private (ε = 0) and anchors the low end of the accuracy range.
type Uniform struct{}

// Name implements Mechanism.
func (Uniform) Name() string { return "uniform" }

// Recommend implements Mechanism.
func (Uniform) Recommend(u []float64, rng *rand.Rand) (int, error) {
	if err := validate(u); err != nil {
		return 0, err
	}
	return rng.Intn(len(u)), nil
}

// Probabilities implements Distribution.
func (Uniform) Probabilities(u []float64) ([]float64, error) {
	if err := validate(u); err != nil {
		return nil, err
	}
	p := make([]float64, len(u))
	for i := range p {
		p[i] = 1 / float64(len(u))
	}
	return p, nil
}
