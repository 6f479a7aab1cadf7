package mechanism

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socialrec/internal/distribution"
)

// The level table must not change a single bit of output. The reference
// functions below are the per-entry math.Exp implementations the table
// replaced, kept verbatim as the oracle: every weight, prefix sum,
// probability and pick of the table-backed code must equal theirs exactly,
// for every input, including the ones that fall back to per-entry exps.

func refAppendCDF(dst, u []float64, scale float64) []float64 {
	max := u[0]
	for _, x := range u[1:] {
		if x > max {
			max = x
		}
	}
	var acc float64
	for _, x := range u {
		acc += math.Exp(scale * (x - max))
		dst = append(dst, acc)
	}
	return dst
}

func refProbabilities(e Exponential, u []float64) ([]float64, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if err := validate(u); err != nil {
		return nil, err
	}
	scale := e.Epsilon / e.Sensitivity
	max := u[0]
	for _, x := range u[1:] {
		if x > max {
			max = x
		}
	}
	p := make([]float64, len(u))
	var z float64
	for i, x := range u {
		w := math.Exp(scale * (x - max))
		p[i] = w
		z += w
	}
	for i := range p {
		p[i] /= z
	}
	return p, nil
}

func refBuildSparseCDF(dst []float64, s SparseVec, scale float64) SparseCDF {
	c := SparseCDF{Tail: s.tail()}
	var zs float64
	if len(s.Val) > 0 {
		c.Support = refAppendCDF(dst, s.Val, scale)
		zs = c.Support[len(c.Support)-1]
	}
	c.TailWeight = math.Exp(-scale * s.max())
	c.Total = zs + float64(c.Tail)*c.TailWeight
	return c
}

func refRecommendSparse(e Exponential, s SparseVec, rng *rand.Rand) (Pick, error) {
	if err := e.validate(); err != nil {
		return Pick{}, err
	}
	if err := s.validate(); err != nil {
		return Pick{}, err
	}
	scale := e.Epsilon / e.Sensitivity
	umax := s.max()
	var zs float64
	for _, x := range s.Val {
		zs += math.Exp(scale * (x - umax))
	}
	tail := s.tail()
	tw := math.Exp(-scale * umax)
	target := rng.Float64() * (zs + float64(tail)*tw)
	if target < zs {
		var acc float64
		for i, x := range s.Val {
			acc += math.Exp(scale * (x - umax))
			if acc > target {
				return Pick{Support: i}, nil
			}
		}
	}
	if tail == 0 {
		return Pick{Support: len(s.Val) - 1}, nil
	}
	rank := int((target - zs) / tw)
	if rank >= tail {
		rank = tail - 1
	}
	return TailPick(rank), nil
}

func refProbabilitiesSparse(e Exponential, s SparseVec) ([]float64, float64, error) {
	if err := e.validate(); err != nil {
		return nil, 0, err
	}
	if err := s.validate(); err != nil {
		return nil, 0, err
	}
	scale := e.Epsilon / e.Sensitivity
	umax := s.max()
	support := make([]float64, len(s.Val))
	var zs float64
	for i, x := range s.Val {
		w := math.Exp(scale * (x - umax))
		support[i] = w
		zs += w
	}
	tailWeight := math.Exp(-scale * umax)
	total := zs + float64(s.tail())*tailWeight
	for i := range support {
		support[i] /= total
	}
	return support, tailWeight / total, nil
}

func refTopKPeelSparse(eps, sens float64, s SparseVec, k int, rng *rand.Rand) ([]Pick, error) {
	if !(eps > 0) {
		return nil, ErrBadEpsilon
	}
	if !(sens > 0) {
		return nil, ErrBadSens
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if k < 1 || k > s.N {
		return nil, fmt.Errorf("mechanism: top-k k=%d outside [1, %d]", k, s.N)
	}
	scale := eps / float64(k) / sens
	w := make([]float64, 0, len(s.Val))
	remaining := make([]float64, len(s.Val))
	copy(remaining, s.Val)
	alive := make([]int, len(s.Val))
	for i := range alive {
		alive[i] = i
	}
	m := s.tail()
	var taken TailTracker
	out := make([]Pick, 0, k)
	for len(out) < k {
		c := refBuildSparseCDF(w, SparseVec{Val: remaining, N: len(remaining) + m}, scale)
		pick := SampleSparseCDF(&c, rng)
		if pick.IsTail() {
			out = append(out, TailPick(taken.Take(pick.Tail)))
			m--
			continue
		}
		out = append(out, Pick{Support: alive[pick.Support]})
		last := len(remaining) - 1
		remaining[pick.Support], remaining[last] = remaining[last], remaining[pick.Support]
		alive[pick.Support], alive[last] = alive[last], alive[pick.Support]
		remaining = remaining[:last]
		alive = alive[:last]
	}
	return out, nil
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// checkLevelWeights compares every table-backed weight loop against its
// reference on one input.
func checkLevelWeights(t *testing.T, val []float64, tail int, eps, sens float64, seed int64, k int) {
	t.Helper()
	e := Exponential{Epsilon: eps, Sensitivity: sens}
	scale := eps / sens

	if validate(val) == nil {
		if got, want := appendCDF(nil, val, scale), refAppendCDF(nil, val, scale); !sameBits(got, want) {
			t.Fatalf("appendCDF(%v, scale=%g) = %v, want %v", val, scale, got, want)
		}
	}
	got, err := e.Probabilities(val)
	want, wantErr := refProbabilities(e, val)
	if !sameErr(err, wantErr) || !sameBits(got, want) {
		t.Fatalf("Probabilities(%v) = %v, %v; want %v, %v", val, got, err, want, wantErr)
	}
	if err == nil {
		rg, rw := distribution.NewRNG(seed), distribution.NewRNG(seed)
		gotI, _ := e.Recommend(val, rg)
		wantI := SampleCDF(refAppendCDF(nil, val, scale), rw)
		if gotI != wantI || rg.Int63() != rw.Int63() {
			t.Fatalf("Recommend(%v) = %d, want %d (or the RNG streams diverged)", val, gotI, wantI)
		}
	}

	s := SparseVec{Val: val, N: len(val) + tail}
	rg, rw := distribution.NewRNG(seed), distribution.NewRNG(seed)
	gotP, err := e.RecommendSparse(s, rg)
	wantP, wantErr := refRecommendSparse(e, s, rw)
	if !sameErr(err, wantErr) || gotP != wantP || rg.Int63() != rw.Int63() {
		t.Fatalf("RecommendSparse(%v, N=%d) = %+v, %v; want %+v, %v", val, s.N, gotP, err, wantP, wantErr)
	}

	if err := s.validate(); err == nil && e.validate() == nil {
		gotC, _ := e.SparseCDF(s)
		wantC := refBuildSparseCDF(nil, s, scale)
		if !sameBits(gotC.Support, wantC.Support) || gotC.Tail != wantC.Tail ||
			!sameBits([]float64{gotC.TailWeight, gotC.Total}, []float64{wantC.TailWeight, wantC.Total}) {
			t.Fatalf("SparseCDF(%v, N=%d) = %+v, want %+v", val, s.N, *gotC, wantC)
		}
	}

	gotS, gotTail, err := e.ProbabilitiesSparse(s)
	wantS, wantTail, wantErr := refProbabilitiesSparse(e, s)
	if !sameErr(err, wantErr) || !sameBits(gotS, wantS) || !sameBits([]float64{gotTail}, []float64{wantTail}) {
		t.Fatalf("ProbabilitiesSparse(%v, N=%d) = %v, %g, %v; want %v, %g, %v", val, s.N, gotS, gotTail, err, wantS, wantTail, wantErr)
	}

	rg, rw = distribution.NewRNG(seed), distribution.NewRNG(seed)
	gotK, err := TopKPeelSparse(eps, sens, s, k, rg)
	wantK, wantErr := refTopKPeelSparse(eps, sens, s, k, rw)
	same := sameErr(err, wantErr) && len(gotK) == len(wantK) && rg.Int63() == rw.Int63()
	for i := 0; same && i < len(gotK); i++ {
		same = gotK[i] == wantK[i]
	}
	if !same {
		t.Fatalf("TopKPeelSparse(%v, N=%d, k=%d) = %v, %v; want %v, %v", val, s.N, k, gotK, err, wantK, wantErr)
	}
}

// Fuzz input encoding: two little-endian bytes per utility. Below 0xF000
// the value is the integer level u%1024, so a vector's maximum lands on
// either side of the table bound; 0xF000-0xF7FF is the eighth-step value
// (u&0x7FF)/8, mostly non-integral; above that, u&3 picks NaN, +Inf, -1 or
// 1e300.
const (
	fuzzFrac    = 0xF000
	fuzzSpecial = 0xF800
)

func decodeLevels(data []byte) []float64 {
	val := make([]float64, 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(val) < 4096; i += 2 {
		u := binary.LittleEndian.Uint16(data[i:])
		switch {
		case u < fuzzFrac:
			val = append(val, float64(u%1024))
		case u < fuzzSpecial:
			val = append(val, float64(u&0x7FF)/8)
		default:
			val = append(val, [4]float64{math.NaN(), math.Inf(1), -1, 1e300}[u&3])
		}
	}
	return val
}

func encodeLevels(codes ...uint16) []byte {
	b := make([]byte, 2*len(codes))
	for i, c := range codes {
		binary.LittleEndian.PutUint16(b[2*i:], c)
	}
	return b
}

// levelRun is n entries cycling through levels 1..l followed by one entry
// of level top: a support of n+1 entries whose maximum is top.
func levelRun(n int, l, top uint16) []byte {
	codes := make([]uint16, n+1)
	for i := range n {
		codes[i] = 1 + (l+uint16(i))%l
	}
	codes[n] = top
	return encodeLevels(codes...)
}

func FuzzLevelWeights(f *testing.F) {
	const nan, inf, neg = fuzzSpecial, fuzzSpecial + 1, fuzzSpecial + 2
	for _, c := range []struct {
		data []byte
		tail uint16
	}{
		{levelRun(600, 6, 511), 4700}, // table: umax just below the bound
		{levelRun(600, 6, 512), 4700}, // fallback: umax at the bound
		{levelRun(600, 6, 513), 100},  // fallback: above the bound
		{levelRun(2400, 40, 40), 4700},
		{encodeLevels(7, 2, 3), 50},                      // umax >= nnz
		{encodeLevels(3, 1, 2, 2), 0},                    // umax == nnz-1, no tail
		{encodeLevels(0, 0, 0, 0), 10},                   // all-zero support
		{encodeLevels(4), 0},                             // single entry
		{encodeLevels(4), 3},                             // single entry plus tail
		{nil, 5},                                         // tail only
		{encodeLevels(fuzzFrac+12, 2, fuzzFrac+1, 3), 9}, // non-integral
		{encodeLevels(1, nan, 2, 2, 1), 4},               // NaN inside: validation error
		{encodeLevels(nan, 1, 2, 1, 1), 4},               // NaN first: validation error
		{encodeLevels(1, inf, 1, 1, 1), 2},               // +Inf: validation error
		{encodeLevels(1, neg, 1), 2},                     // negative: validation error
		{encodeLevels(1, 1, 1), 0xFFFF},                  // tail far larger than the support
	} {
		for _, eps := range []float64{1, 0.01, 200} {
			f.Add(c.data, c.tail, eps, 2.0, int64(len(c.data))+int64(c.tail), uint8(5))
		}
	}
	f.Add(encodeLevels(2, 1, 1), uint16(1), math.Inf(1), 1.0, int64(3), uint8(2)) // ε=+Inf: NaN weight at u_max
	f.Add(encodeLevels(2, 1, 1), uint16(1), -1.0, 1.0, int64(3), uint8(2))        // bad epsilon
	f.Add(encodeLevels(2, 1, 1), uint16(0), 1.0, 1.0, int64(3), uint8(4))         // k > N
	f.Fuzz(func(t *testing.T, data []byte, tail uint16, eps, sens float64, seed int64, k uint8) {
		checkLevelWeights(t, decodeLevels(data), int(tail), eps, sens, seed, int(k%16))
	})
}

// TestLevelWeightsMatchReferenceRandom sweeps random common-neighbours
// shaped vectors, which take the table, against the reference. Large ε
// makes weights underflow, so a peel round that kept a stale u_max would
// pick differently.
func TestLevelWeightsMatchReferenceRandom(t *testing.T) {
	rng := distribution.NewRNG(11)
	for trial := 0; trial < 300; trial++ {
		val := make([]float64, 1+rng.Intn(400))
		top := 1 + rng.Intn(60)
		for i := range val {
			val[i] = float64(1 + rng.Intn(top))
		}
		if trial%2 == 0 { // a unique maximum, which the peel soon takes
			val[rng.Intn(len(val))] = float64(top + 30)
		}
		eps := []float64{0.1, 0.5, 1, 3, 60}[trial%5]
		checkLevelWeights(t, val, rng.Intn(2000), eps, 2, int64(trial), 1+trial%5)
	}
}

// TestLevelTableSelection pins which inputs take the table, so that the
// bit-identity checks above exercise both paths.
func TestLevelTableSelection(t *testing.T) {
	for _, c := range []struct {
		name  string
		val   []float64
		table bool
	}{
		{"integral", []float64{1, 3, 2, 2, 1}, true},
		{"umax just below bound", decodeLevels(levelRun(600, 6, 511)), true},
		{"umax at bound", decodeLevels(levelRun(600, 6, 512)), false},
		{"umax >= nnz", []float64{7, 2, 3}, false},
		{"all zero", []float64{0, 0, 0}, true},
		{"non-integral", []float64{1, 2.5, 1, 1, 1}, false},
		{"NaN", []float64{1, math.NaN(), 1, 1, 1}, false},
		{"Inf", []float64{1, math.Inf(1), 1, 1, 1}, false},
	} {
		var lw levelWeights
		lw.init(c.val, 0.5)
		if got := lw.levels > 0; got != c.table {
			t.Errorf("%s: table used = %v, want %v", c.name, got, c.table)
		}
	}
}
