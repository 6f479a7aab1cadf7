package main

import (
	"fmt"
	"math"
	"slices"

	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/utility"
)

// chiMinP is the chi-squared gate: a served distribution whose p-value
// against the exact mechanism falls below it fails the run. It is small
// enough that a correct mechanism essentially never trips it across the
// many runs a comparison makes, while a mechanism that draws from the
// wrong law fails by many orders of magnitude on tens of thousands of
// draws.
const chiMinP = 1e-6

// verdict is the correctness gate's account of one run.
type verdict struct {
	attempted int
	failed    int
	// Failures by cause.
	transport, server5xx, refused429, otherStatus, wrongAnswer int
	firstWrong                                                 string
	// weak counts reads served while the snapshot changed under them (or
	// from a version no worker could map); they are checked only against
	// what holds in every version.
	weak int
	// accuracy is Definition 2's u(served)/u_max over top-1 reads with a
	// known version.
	accSum float64
	accN   int
	chi    *chiResult
}

func (v *verdict) wrong(format string, args ...any) {
	v.wrongAnswer++
	if v.firstWrong == "" {
		v.firstWrong = fmt.Sprintf(format, args...)
	}
}

func (v *verdict) ok() bool {
	return v.failed == 0 && (v.chi == nil || v.chi.p >= chiMinP)
}

func (v *verdict) accuracy() float64 {
	if v.accN == 0 {
		return 0
	}
	return v.accSum / float64(v.accN)
}

// check validates every answer in results against the graph version that
// served it: a recommended node is in range, is not the target, is not
// already one of its out-neighbours, and top-k lists are distinct; a 422
// must come from a target without a positive-utility candidate. With
// chi set it also tests the most-requested target's top-1 draws against
// the exponential mechanism's exact probabilities.
func check(s *server, results []result, sens float64, chi bool) (verdict, error) {
	var v verdict
	util := utility.CommonNeighbors{}
	var reads []int
	for i := range results {
		r := &results[i]
		v.attempted++
		switch {
		case r.status == 0:
			v.transport++
		case r.status >= 500:
			v.server5xx++
		case r.status == 429:
			v.refused429++
		case !okStatus(r.status) || (r.kind == opWrite) != (r.status == 201):
			v.otherStatus++
		case r.kind == opRead:
			reads = append(reads, i)
		}
	}
	// Group reads by (version, target); unmapped versions sort last.
	key := func(i int) (uint64, int32) {
		r := &results[i]
		if _, ok := s.versions[r.verBefore]; ok && r.verBefore == r.verAfter {
			return uint64(r.verBefore), r.target
		}
		return math.MaxUint64, r.target
	}
	slices.SortFunc(reads, func(a, b int) int {
		va, ta := key(a)
		vb, tb := key(b)
		if va != vb {
			if va < vb {
				return -1
			}
			return 1
		}
		return int(ta) - int(tb)
	})

	csr, applied := s.in.csr, uint64(0)
	var final *graph.CSR
	hot := hotTarget(results, reads)
	var hotDraws []int32
	var hotIdx []int32
	var hotVal []float64
	for lo := 0; lo < len(reads); {
		ver, t := key(reads[lo])
		hi := lo
		for hi < len(reads) {
			if vh, th := key(reads[hi]); vh != ver || th != t {
				break
			}
			hi++
		}
		group := reads[lo:hi]
		lo = hi
		if ver == math.MaxUint64 {
			if final == nil {
				final = patched(s.in.csr, s.acked)
			}
			for _, i := range group {
				v.weak++
				checkWeak(&v, &results[i], s.in.csr, final, util)
			}
			continue
		}
		covered := s.versions[uint32(ver)].covered
		if covered > uint64(len(s.acked)) {
			return v, fmt.Errorf("version %d covers %d writes but only %d were acknowledged", ver, covered, len(s.acked))
		}
		if covered > applied {
			csr = csr.Patch(deltas(s.acked[applied:covered]))
			applied = covered
		}
		idx, val, err := util.Sparse(csr, int(t))
		if err != nil {
			return v, err
		}
		umax := utility.Max(val)
		for _, i := range group {
			r := &results[i]
			if !validAnswer(&v, r, csr, umax) {
				continue
			}
			if r.status == 200 && r.k == 1 {
				v.accSum += supportValue(idx, val, r.nodes[0]) / umax
				v.accN++
				if chi && t == hot && ver == 0 {
					hotDraws = append(hotDraws, r.nodes[0])
				}
			}
		}
		if chi && t == hot && ver == 0 {
			hotIdx, hotVal = idx, val
		}
	}
	for _, n := range []int{v.transport, v.server5xx, v.refused429, v.otherStatus, v.wrongAnswer} {
		v.failed += n
	}
	if chi {
		c, err := chiSquared(hot, hotIdx, hotVal, hotDraws, utility.CandidateCount(s.in.csr, int(hot)), sens)
		if err != nil {
			return v, err
		}
		v.chi = c
	}
	return v, nil
}

// validAnswer checks one read against the graph version that served it.
func validAnswer(v *verdict, r *result, c *graph.CSR, umax float64) bool {
	t := int(r.target)
	if r.status == 422 {
		if umax > 0 {
			v.wrong("422 for target %d whose best candidate has utility %g", t, umax)
			return false
		}
		return true
	}
	if umax == 0 {
		v.wrong("answer for target %d, which has no positive-utility candidate", t)
		return false
	}
	return validNodes(v, r, c)
}

// validNodes checks the served nodes' shape: k distinct nodes in range,
// none the target, none an out-neighbour in c.
func validNodes(v *verdict, r *result, c *graph.CSR) bool {
	t := int(r.target)
	if r.nn != r.k {
		v.wrong("target %d asked for %d nodes, got %d", t, r.k, r.nn)
		return false
	}
	nodes := r.nodes[:r.nn]
	for j, n := range nodes {
		switch {
		case n < 0 || int(n) >= c.NumNodes():
			v.wrong("target %d: node %d out of range", t, n)
		case int(n) == t:
			v.wrong("target %d recommended to itself", t)
		case c.HasEdge(t, int(n)):
			v.wrong("target %d: node %d is already a neighbour", t, n)
		case slices.Contains(nodes[:j], n):
			v.wrong("target %d: node %d listed twice", t, n)
		default:
			continue
		}
		return false
	}
	return true
}

// checkWeak judges a read whose serving version is unknown by what holds
// in every version: writes only add edges, so an initial neighbour is a
// neighbour throughout; a 422 must match the first or the last graph.
func checkWeak(v *verdict, r *result, initial, final *graph.CSR, util utility.CommonNeighbors) {
	if r.status == 422 {
		for _, c := range []*graph.CSR{initial, final} {
			if _, val, err := util.Sparse(c, int(r.target)); err == nil && len(val) == 0 {
				return
			}
		}
		v.wrong("422 for target %d, which has candidates before and after the run", r.target)
		return
	}
	validNodes(v, r, initial)
}

// hotTarget is the target with the most top-1 answers.
func hotTarget(results []result, reads []int) int32 {
	counts := map[int32]int{}
	best, bestN := int32(-1), 0
	for _, i := range reads {
		r := &results[i]
		if r.k != 1 || r.status != 200 {
			continue
		}
		counts[r.target]++
		if n := counts[r.target]; n > bestN {
			best, bestN = r.target, n
		}
	}
	return best
}

func supportValue(idx []int32, val []float64, n int32) float64 {
	if j, ok := slices.BinarySearch(idx, n); ok {
		return val[j]
	}
	return 0
}

func deltas(acked []ack) []graph.Delta {
	out := make([]graph.Delta, len(acked))
	for i, a := range acked {
		out[i] = graph.Delta{Op: graph.DeltaAddEdge, From: int(a.edge[0]), To: int(a.edge[1])}
	}
	return out
}

func patched(c *graph.CSR, acked []ack) *graph.CSR {
	if len(acked) == 0 {
		return c
	}
	return c.Patch(deltas(acked))
}

// chiResult is a goodness-of-fit test of served draws against the
// mechanism's exact law.
type chiResult struct {
	target int32
	draws  int
	bins   int
	stat   float64
	p      float64
}

// chiSquared bins the draws by node: each support node expected at least
// five times is its own bin and the rest share one, with expectations from
// Exponential.ProbabilitiesSparse.
func chiSquared(target int32, idx []int32, val []float64, draws []int32, ncand int, sens float64) (*chiResult, error) {
	res := &chiResult{target: target, draws: len(draws)}
	if len(draws) == 0 || len(val) == 0 {
		return res, fmt.Errorf("no top-1 draws with candidates to test")
	}
	probs, tailEach, err := mechanism.Exponential{Epsilon: epsilon, Sensitivity: sens}.ProbabilitiesSparse(mechanism.SparseVec{Val: val, N: ncand})
	if err != nil {
		return nil, err
	}
	n := float64(len(draws))
	observed := map[int32]int{}
	for _, d := range draws {
		observed[d]++
	}
	var restExp float64
	restObs := len(draws)
	for i, p := range probs {
		e := p * n
		if e < 5 {
			restExp += e
			continue
		}
		o := observed[idx[i]]
		restObs -= o
		res.stat += (float64(o) - e) * (float64(o) - e) / e
		res.bins++
	}
	restExp += tailEach * float64(ncand-len(val)) * n
	if restExp > 0 {
		res.stat += (float64(restObs) - restExp) * (float64(restObs) - restExp) / restExp
		res.bins++
	}
	res.p = chiSquaredSurvival(res.stat, res.bins-1)
	return res, nil
}

// chiSquaredSurvival is P[X >= x] for X ~ chi-squared(df), by the
// Wilson-Hilferty normal approximation, accurate far into the tail for the
// bin counts used here.
func chiSquaredSurvival(x float64, df int) float64 {
	if df < 1 {
		return 1
	}
	k := float64(df)
	z := (math.Cbrt(x/k) - (1 - 2/(9*k))) / math.Sqrt(2/(9*k))
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
