package mechanism

import "socialrec/internal/stream"

// Per-call scratch vectors (exponential weights, Laplace-noised copies) are
// the dominant steady-state allocation of the serving hot path once utility
// vectors are cached. An instrumented pool (see internal/stream) recycles
// them so repeated Recommend calls are allocation-free; buffers are
// length-adjusted per use and never escape to callers.

var scratchPool = stream.NewPool("mechanism.scratch", func() *[]float64 {
	s := make([]float64, 0, 1024)
	return &s
})

// getScratch returns a zero-length scratch slice with capacity >= n and the
// pool handle to return it with.
func getScratch(n int) (*[]float64, []float64) {
	p := scratchPool.Get()
	if cap(*p) < n {
		*p = make([]float64, 0, n)
	}
	return p, (*p)[:0]
}

func putScratch(p *[]float64) { scratchPool.Put(p) }

// peelScratch is TopKPeelSparse's working set: the shrinking copy of the
// support, the original index of each of its slots, the running CDF, and
// the tail ranks taken so far.
type peelScratch struct {
	val, cdf []float64
	alive    []int
	chosen   []int
}

var peelPool = stream.NewPool("mechanism.peel", func() *peelScratch { return &peelScratch{} })

// getPeelScratch returns pooled peel scratch loaded with a copy of val and
// the identity slot map, with an empty CDF of capacity len(val) and an
// empty tail list.
func getPeelScratch(val []float64) *peelScratch {
	ps := peelPool.Get()
	ps.val = append(ps.val[:0], val...)
	ps.alive = ps.alive[:0]
	for i := range val {
		ps.alive = append(ps.alive, i)
	}
	if cap(ps.cdf) < len(val) {
		ps.cdf = make([]float64, 0, len(val))
	}
	ps.chosen = ps.chosen[:0]
	return ps
}
