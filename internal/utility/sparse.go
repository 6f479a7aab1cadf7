package utility

import (
	"fmt"
	"slices"

	"socialrec/internal/stream"
)

// checkTarget validates the target node range, the shared precondition of
// every kernel entry point.
func checkTarget(v View, r int) error {
	if r < 0 || r >= v.NumNodes() {
		return fmt.Errorf("%w: %d", ErrTarget, r)
	}
	return nil
}

// Sparse utility kernels. The paper's link-analysis utilities are zero
// outside a target's 2-3-hop out-neighborhood, so on sparse graphs the
// utility vector has a few hundred nonzeros out of n. The kernels here walk
// the adjacency spans directly and accumulate into pooled scratch, touching
// only the nonzero support — O(nnz) work and allocation per call instead of
// the O(n) a dense vector costs. Every kernel accumulates floating-point
// contributions in the same (ascending-index) order as the dense reference
// computation, so the nonzero values are bit-identical to the dense
// vector's; Function.Vector is a thin scatter wrapper over the kernel.

// spanner is the fast-path neighbor access every snapshot store (CSR,
// Mapped, graph.Store) provides; the mutable *graph.Graph falls back to a
// sorted copy.
type spanner interface{ Out(v int) []int32 }

// outRow returns v's out-neighbors ascending as an []int32 span. For
// snapshot stores the span is returned zero-copy; for map-backed graphs the
// row is gathered into *buf (grown capacity is written back so the pooled
// buffer is actually reused) and sorted, because map iteration order is
// unspecified and the kernels rely on deterministic ascending accumulation.
func outRow(v View, node int, buf *[]int32) []int32 {
	if s, ok := v.(spanner); ok {
		return s.Out(node)
	}
	row := (*buf)[:0]
	v.ForEachOutNeighbor(node, func(u int) { row = append(row, int32(u)) })
	slices.Sort(row)
	*buf = row
	return row
}

// accumulator is a sparse accumulator (SPA): a dense value array that is
// all-zero between uses plus the list of indices holding nonzero mass, so
// clearing costs O(touched) rather than O(n). Kernels that can bound the
// support in advance and see it is not sparse may instead accumulate into
// val directly (setting dense), trading the per-add touch tracking for one
// O(n) scan at collection time.
type accumulator struct {
	val     []float64
	touched []int32
	// dense marks that accumulation bypassed touched tracking: val alone is
	// authoritative over [0, n). ascending rebuilds touched from it.
	dense bool
	// packed marks that compact moved the nonzero entries into the prefix
	// val[:len(touched)]; reset clears that prefix.
	packed bool
	// n is the live prefix of val for the current graph (val may be longer,
	// pooled from a bigger one).
	n int
}

func (a *accumulator) grow(n int) {
	if len(a.val) < n {
		a.val = make([]float64, n) // fresh allocation is already zeroed
	}
	a.touched = a.touched[:0]
	a.dense = false
	a.n = n
}

// add accumulates x into entry i, tracking first touches. Contributions are
// non-negative, so an entry never cancels back to zero and the touched list
// stays duplicate-free.
func (a *accumulator) add(i int32, x float64) {
	if a.val[i] == 0 && x != 0 {
		a.touched = append(a.touched, i)
	}
	a.val[i] += x
}

// zero clears entry i without removing it from the touched list.
func (a *accumulator) zero(i int32) { a.val[i] = 0 }

// ascending orders the touched list ascending — the accumulation order the
// dense reference computations use — and returns it. Two strategies produce
// the identical list: sorting the touched entries when the support is small
// relative to the n live entries, or rebuilding it with a dense ascending
// scan once the support is large enough that the O(nnz log nnz) sort would
// cost more (the scan also drops entries zeroed since touching, which the
// sort path retains harmlessly).
func (a *accumulator) ascending(n int) []int32 {
	if a.dense || 8*len(a.touched) >= n {
		a.dense = false
		a.touched = a.touched[:0]
		for i := 0; i < n; i++ {
			if a.val[i] != 0 {
				a.touched = append(a.touched, int32(i))
			}
		}
		return a.touched
	}
	slices.Sort(a.touched)
	return a.touched
}

// compact gathers the nonzero entries, ascending by index, into the
// accumulator's own memory: the indices into the touched list and the
// values into the prefix val[:nnz]. The support then needs no buffer of
// its own. The in-place moves are safe because the k-th nonzero index is
// at least k, so a write never lands on an entry still to be read.
func (a *accumulator) compact(n int) ([]int32, []float64) {
	touched := a.ascending(n)
	k := 0
	for _, i := range touched {
		x := a.val[i]
		a.val[i] = 0
		if x != 0 {
			touched[k] = i
			a.val[k] = x
			k++
		}
	}
	a.touched = touched[:k]
	a.packed = true
	return a.touched, a.val[:k]
}

// reset zeroes every touched entry, restoring the all-zero invariant.
func (a *accumulator) reset() {
	switch {
	case a.dense:
		clear(a.val[:a.n])
		a.dense = false
	case a.packed:
		clear(a.val[:len(a.touched)])
		a.packed = false
	default:
		for _, i := range a.touched {
			a.val[i] = 0
		}
	}
	a.touched = a.touched[:0]
}

// sparseScratch bundles the accumulators and row buffers one kernel
// invocation needs, plus the Support the kernel's result is gathered into
// (its Idx and Val live in an accumulator's memory, see compact); a
// sync.Pool recycles them so steady-state serving does no length-n or
// support-sized allocation. Accumulators are grown by the kernel itself —
// most kernels use only s.a, and growing all three would triple the pooled
// scratch memory for nothing.
type sparseScratch struct {
	a, b, c    accumulator
	rowA, rowB []int32
	sup        Support
}

var sparsePool = stream.NewPool("utility.sparse", func() *sparseScratch {
	s := &sparseScratch{}
	s.sup.s = s
	return s
})

func getSparseScratch() *sparseScratch {
	return sparsePool.Get()
}

func putSparseScratch(s *sparseScratch) {
	s.a.reset()
	s.b.reset()
	s.c.reset()
	sparsePool.Put(s)
}

// Support is a target's nonzero utility support held in pooled kernel
// scratch: Idx the candidate node IDs ascending, Val the matching positive
// utilities (bit-identical to Function.Sparse), and Skip the sorted union of
// the target, its out-neighbors and Idx — every node a zero-utility tail
// rank steps over when it is mapped back to a node ID. The slices alias
// the pool's memory: they stay valid until Release, after which the next
// request overwrites them.
type Support struct {
	Idx  []int32
	Val  []float64
	Skip []int32
	s    *sparseScratch
}

// Release returns the support's scratch to its pool. Neither the Support
// nor any of its slices may be used afterwards.
func (sup *Support) Release() { putSparseScratch(sup.s) }

// FillSparse computes f's nonzero support for target r into pooled scratch
// — the serving path's pre-noise stage, with nothing allocated per request
// once the pool is warm. The caller must Release the result; a consumer
// that keeps the support past the request copies it out first.
func FillSparse(f Function, v View, r int) (*Support, error) {
	s := getSparseScratch()
	if err := f.fill(v, r, s); err != nil {
		putSparseScratch(s)
		return nil, err
	}
	s.skipTable(v, r)
	return &s.sup, nil
}

// sparseCopy is Function.Sparse: fill pooled scratch, then copy the
// support out into caller-owned slices. It is generic so the utility's
// receiver is not boxed into an interface.
func sparseCopy[F Function](f F, v View, r int) ([]int32, []float64, error) {
	s := getSparseScratch()
	defer putSparseScratch(s)
	if err := f.fill(v, r, s); err != nil {
		return nil, nil, err
	}
	idx := append(make([]int32, 0, len(s.sup.Idx)), s.sup.Idx...)
	val := append(make([]float64, 0, len(s.sup.Val)), s.sup.Val...)
	return idx, val, nil
}

// skipTable builds s.sup.Skip: the sorted union of r, r's out-neighbors,
// and the support. The three inputs are disjoint and already sorted, so a
// linear merge produces the union without a sort.
func (s *sparseScratch) skipTable(v View, r int) {
	row := outRow(v, r, &s.rowA)
	idx := s.sup.Idx
	skip := s.sup.Skip[:0]
	tgt := int32(r)
	i, j := 0, 0
	for i < len(row) || j < len(idx) {
		if i < len(row) && (j >= len(idx) || row[i] < idx[j]) {
			if tgt >= 0 && tgt < row[i] {
				skip = append(skip, tgt)
				tgt = -1
			}
			skip = append(skip, row[i])
			i++
		} else {
			if tgt >= 0 && tgt < idx[j] {
				skip = append(skip, tgt)
				tgt = -1
			}
			skip = append(skip, idx[j])
			j++
		}
	}
	if tgt >= 0 {
		skip = append(skip, tgt)
	}
	s.sup.Skip = skip
}

// twoHopWalk accumulates the common-neighbor counts of target r into s.a:
// counts[i] = number of length-2 out-walks r→a→i with i ∉ {r, a}. The
// two-hop edge count bounds the support up front, so when the result will
// not be sparse the walk accumulates densely — skipping the per-add touch
// tracking — and lets ascending() rebuild the index list in one scan;
// counts are identical either way.
func twoHopWalk(v View, r int, s *sparseScratch) {
	s.a.grow(v.NumNodes())
	row := outRow(v, r, &s.rowA)
	bound := 0
	for _, a := range row {
		bound += v.OutDegree(int(a))
	}
	if 4*bound >= v.NumNodes() {
		s.a.dense = true
		val := s.a.val
		for _, a := range row {
			for _, i := range outRow(v, int(a), &s.rowB) {
				if int(i) == r || i == a {
					continue
				}
				val[i]++
			}
		}
		return
	}
	for _, a := range row {
		for _, i := range outRow(v, int(a), &s.rowB) {
			if int(i) == r || i == a {
				continue
			}
			s.a.add(i, 1)
		}
	}
}

// gather masks the candidate-convention exclusions (r itself and r's
// out-neighbors) in acc and compacts the remaining nonzero entries into
// s.sup, ascending by node ID. The exclusions are read through outRow
// rather than the ForEachOutNeighbor closure, which would escape to the
// heap through the interface call on the serving hot path.
func (s *sparseScratch) gather(v View, r int, acc *accumulator) {
	acc.zero(int32(r))
	for _, u := range outRow(v, r, &s.rowA) {
		acc.zero(u)
	}
	s.sup.Idx, s.sup.Val = acc.compact(v.NumNodes())
}

// CandidateCount returns the size of target r's candidate domain: every
// node except r itself and r's existing out-neighbors. It is the n_cand the
// sparse serving path pairs with a kernel's nonzero support (the remaining
// n_cand - nnz candidates implicitly hold utility 0).
func CandidateCount(v View, r int) int {
	return v.NumNodes() - 1 - v.OutDegree(r)
}

// Scatter expands a sparse kernel result to the dense length-n utility
// vector Function.Vector returns.
func Scatter(n int, idx []int32, val []float64) []float64 {
	vec := make([]float64, n)
	for i, id := range idx {
		vec[id] = val[i]
	}
	return vec
}
