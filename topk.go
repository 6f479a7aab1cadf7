package socialrec

import (
	"fmt"
	"math/rand"
	"slices"

	"socialrec/internal/distribution"
	"socialrec/internal/mechanism"
)

// RecommendTopK returns k distinct private recommendations for the target,
// ordered by decreasing (internal) utility. The privacy cost of the whole
// set is the Recommender's ε:
//
//   - MechanismLaplace noises the utility vector once and releases the top
//     k of the noisy scores (one ε-DP histogram release + post-processing).
//   - MechanismExponential peels k sequential draws at ε/k each (sequential
//     composition).
//   - MechanismSmoothing mixes k uniform/top draws; by composition the set
//     costs k·ln(1+nx/(1-x)), so the per-construction x is derated to ε/k.
//   - MechanismNone returns the exact top k (no privacy).
//
// Every arm runs over the sparse utility form, with the zero tail sampled
// in closed form, so no arm is O(n): the Laplace release
// (mechanism.TopKLaplaceSparse) costs O(nnz + k), and the exponential peel
// (mechanism.TopKPeelSparse) O(k·nnz), each of its k rounds costing nnz
// level-table reads plus one exp per utility level (per-entry exps when
// the utilities are not small integers).
//
// The paper's Appendix A observes that multiple recommendations face
// strictly harsher accuracy limits than single ones; expect noticeably
// worse per-set accuracy as k grows.
func (r *Recommender) RecommendTopK(target, k int) ([]Recommendation, error) {
	return r.recommendTopK(target, k, distribution.SplitN(r.seed, "topk", target*1048576+k))
}

// RecommendTopKWithRNG is RecommendTopK with caller-supplied randomness.
func (r *Recommender) RecommendTopKWithRNG(target, k int, rng *rand.Rand) ([]Recommendation, error) {
	return r.recommendTopK(target, k, rng)
}

func (r *Recommender) recommendTopK(target, k int, rng *rand.Rand) ([]Recommendation, error) {
	st := r.state.Load()
	cv, err := r.vector(st, target)
	if err != nil {
		return nil, err
	}
	defer cv.release()
	if k < 1 || k > cv.ncand {
		return nil, fmt.Errorf("socialrec: k=%d outside [1, %d] for node %d", k, cv.ncand, target)
	}

	var picks []mechanism.Pick
	switch r.kind {
	case MechanismLaplace:
		picks, err = mechanism.TopKLaplaceSparse(r.epsilon, st.sens, cv.sparseVec(), k, rng)
	case MechanismExponential:
		picks, err = mechanism.TopKPeelSparse(r.epsilon, st.sens, cv.sparseVec(), k, rng)
	case MechanismSmoothing:
		picks, err = r.smoothingTopK(cv, k, rng)
	default: // MechanismNone
		picks = bestTopK(cv, k)
	}
	if err != nil {
		return nil, err
	}

	out := make([]Recommendation, len(picks))
	for i, p := range picks {
		node, util := cv.resolve(p)
		out[i] = Recommendation{Target: target, Node: node, Utility: util, MaxUtility: cv.umax}
	}
	slices.SortStableFunc(out, func(a, b Recommendation) int {
		switch {
		case a.Utility > b.Utility:
			return -1
		case a.Utility < b.Utility:
			return 1
		default:
			return 0
		}
	})
	return out, nil
}

// bestTopK is the non-private exact top k over the sparse form: the largest
// support entries (ties toward the lower node ID, as a stable descending
// sort of the dense vector would order them), padded with the
// lowest-ranked zero-tail candidates when k exceeds the support.
func bestTopK(cv *cachedVector, k int) []mechanism.Pick {
	picks := make([]mechanism.Pick, 0, k)
	ks := min(k, len(cv.val))
	if ks > 0 {
		for _, i := range mechanism.TopIndices(cv.val, ks) {
			picks = append(picks, mechanism.Pick{Support: i})
		}
	}
	for rank := 0; len(picks) < k; rank++ {
		picks = append(picks, mechanism.TailPick(rank))
	}
	return picks
}

// smoothingTopK draws k distinct candidates from A_S(x') without
// replacement, where x' is derated so that k-fold composition stays within
// the Recommender's ε. It computes the closed-form A_S(x') probabilities
// once and then draws from the distribution renormalized over the
// not-yet-chosen candidates — exactly the conditional law a rejection loop
// would converge to — in guaranteed O(k·nnz): the zero tail's candidates
// are exchangeable and share one probability, so the tail needs a mass
// comparison plus a uniform rank, never an O(n) scan.
func (r *Recommender) smoothingTopK(cv *cachedVector, k int, rng *rand.Rand) ([]mechanism.Pick, error) {
	x, err := mechanism.SmoothingXForEpsilon(r.epsilon/float64(k), cv.ncand)
	if err != nil {
		return nil, err
	}
	s := mechanism.Smoothing{X: x, Base: mechanism.Best{}}
	support, tailEach, err := s.ProbabilitiesSparse(cv.sparseVec())
	if err != nil {
		return nil, err
	}

	chosen := newBitset(len(support))
	var taken mechanism.TailTracker
	m := cv.ncand - len(support) // tail candidates still unchosen
	remaining := 1.0             // total probability mass of the unchosen candidates
	picks := make([]mechanism.Pick, 0, k)
	for len(picks) < k {
		t := rng.Float64() * remaining
		supportPick := -1
		var acc float64
		for i, pi := range support {
			if chosen.has(i) {
				continue
			}
			supportPick = i
			acc += pi
			if t < acc {
				break
			}
		}
		if (t >= acc || supportPick < 0) && m > 0 {
			// The draw landed in the tail mass (or no unchosen support
			// remains): a uniform rank picks among the exchangeable
			// zero-utility candidates.
			rank := int((t - acc) / tailEach)
			if rank >= m {
				rank = m - 1 // rounding falls through to the last tail slot
			}
			if rank < 0 {
				rank = 0
			}
			picks = append(picks, mechanism.TailPick(taken.Take(rank)))
			m--
			remaining -= tailEach
			continue
		}
		// supportPick falls through to the last unchosen support candidate
		// when floating-point rounding leaves t marginally above the
		// accumulated mass.
		chosen.set(supportPick)
		remaining -= support[supportPick]
		picks = append(picks, mechanism.Pick{Support: supportPick})
	}
	return picks, nil
}

// bitset is a dense bit vector used to mark already-chosen candidates.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
