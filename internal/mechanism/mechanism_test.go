package mechanism

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"socialrec/internal/distribution"
)

func probsSumToOne(t *testing.T, p []float64) {
	t.Helper()
	var sum float64
	for _, x := range p {
		if x < 0 {
			t.Fatalf("negative probability %g", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", sum)
	}
}

func TestBestRecommendsArgmax(t *testing.T) {
	idx, err := Best{}.Recommend([]float64{1, 5, 3}, nil)
	if err != nil || idx != 1 {
		t.Errorf("Recommend = %d, %v", idx, err)
	}
}

func TestBestProbabilitiesSplitTies(t *testing.T) {
	p, err := Best{}.Probabilities([]float64{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	probsSumToOne(t, p)
	if p[0] != 0.5 || p[1] != 0.5 || p[2] != 0 {
		t.Errorf("p = %v", p)
	}
}

func TestBestTieBreakUniform(t *testing.T) {
	rng := distribution.NewRNG(3)
	counts := [2]int{}
	for i := 0; i < 2000; i++ {
		idx, err := Best{}.Recommend([]float64{7, 7}, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	if counts[0] < 800 || counts[1] < 800 {
		t.Errorf("tie break skewed: %v", counts)
	}
}

func TestValidationErrors(t *testing.T) {
	mechs := []Mechanism{Best{}, Uniform{},
		Exponential{Epsilon: 1, Sensitivity: 1},
		Laplace{Epsilon: 1, Sensitivity: 1},
		Smoothing{X: 0.5, Base: Best{}},
	}
	rng := distribution.NewRNG(1)
	for _, m := range mechs {
		if _, err := m.Recommend(nil, rng); !errors.Is(err, ErrEmpty) {
			t.Errorf("%s: empty input: %v", m.Name(), err)
		}
		if _, err := m.Recommend([]float64{1, -2}, rng); !errors.Is(err, ErrNegative) {
			t.Errorf("%s: negative utility: %v", m.Name(), err)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1)} {
			if _, err := m.Recommend([]float64{1, x, 2}, rng); !errors.Is(err, ErrNotFinite) {
				t.Errorf("%s: utility %g: %v", m.Name(), x, err)
			}
			s := SparseVec{Val: []float64{1, x, 2}, N: 10}
			if _, err := m.(SparseMechanism).RecommendSparse(s, rng); !errors.Is(err, ErrNotFinite) {
				t.Errorf("%s: sparse utility %g: %v", m.Name(), x, err)
			}
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		s := SparseVec{Val: []float64{1, x, 2}, N: 10}
		if _, err := TopKPeelSparse(1, 1, s, 3, rng); !errors.Is(err, ErrNotFinite) {
			t.Errorf("TopKPeelSparse: utility %g: %v", x, err)
		}
		if _, err := (Exponential{Epsilon: 1, Sensitivity: 1}).SparseCDF(s); !errors.Is(err, ErrNotFinite) {
			t.Errorf("SparseCDF: utility %g: %v", x, err)
		}
	}
}

func TestExponentialParameterValidation(t *testing.T) {
	rng := distribution.NewRNG(1)
	if _, err := (Exponential{Epsilon: 0, Sensitivity: 1}).Recommend([]float64{1}, rng); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("eps=0: %v", err)
	}
	if _, err := (Exponential{Epsilon: 1, Sensitivity: 0}).Recommend([]float64{1}, rng); !errors.Is(err, ErrBadSens) {
		t.Errorf("sens=0: %v", err)
	}
	if _, err := (Laplace{Epsilon: -1, Sensitivity: 1}).Recommend([]float64{1}, rng); !errors.Is(err, ErrBadEpsilon) {
		t.Errorf("laplace eps<0: %v", err)
	}
}

func TestExponentialProbabilitiesKnownValues(t *testing.T) {
	// Two candidates, eps/Δf = 1: p1/p0 = e^{u1-u0}.
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	p, err := e.Probabilities([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	probsSumToOne(t, p)
	if math.Abs(p[1]/p[0]-math.E) > 1e-9 {
		t.Errorf("ratio = %g, want e", p[1]/p[0])
	}
}

func TestExponentialMonotone(t *testing.T) {
	// Monotonicity (Definition 4): higher utility => higher probability.
	e := Exponential{Epsilon: 2, Sensitivity: 1}
	p, err := e.Probabilities([]float64{0, 3, 1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !(p[3] > p[1] && p[1] > p[2] && p[2] > p[0]) {
		t.Errorf("probabilities not monotone in utility: %v", p)
	}
}

func TestExponentialNumericStability(t *testing.T) {
	// Huge utilities must not overflow.
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	p, err := e.Probabilities([]float64{1e6, 1e6 - 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	probsSumToOne(t, p)
	if math.IsNaN(p[0]) || p[0] <= p[1] {
		t.Errorf("p = %v", p)
	}
}

func TestExponentialSamplingMatchesProbabilities(t *testing.T) {
	e := Exponential{Epsilon: 1, Sensitivity: 1}
	u := []float64{0, 1, 2}
	p, err := e.Probabilities(u)
	if err != nil {
		t.Fatal(err)
	}
	rng := distribution.NewRNG(17)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		idx, err := e.Recommend(u, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[idx]++
	}
	for i := range p {
		got := float64(counts[i]) / n
		if math.Abs(got-p[i]) > 0.01 {
			t.Errorf("empirical p[%d] = %g, want %g", i, got, p[i])
		}
	}
}

// TestExponentialDPRatio is the core privacy check: for any two utility
// vectors within sensitivity of each other (L1 <= Δf, L∞ <= Δf/2), the
// probability ratio per candidate is bounded by e^ε.
func TestExponentialDPRatio(t *testing.T) {
	const eps, sens = 0.7, 2.0
	e := Exponential{Epsilon: eps, Sensitivity: sens}
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		n := 2 + rng.Intn(6)
		u1 := make([]float64, n)
		u2 := make([]float64, n)
		for i := range u1 {
			u1[i] = 10 * rng.Float64()
			u2[i] = u1[i]
		}
		// Perturb two entries by at most Δf/2 each keeping L1 <= Δf.
		i := rng.Intn(n)
		j := rng.Intn(n)
		u2[i] = math.Max(0, u2[i]+(rng.Float64()-0.5)*sens)
		if j != i {
			rem := sens - math.Abs(u2[i]-u1[i])
			u2[j] = math.Max(0, u2[j]+(rng.Float64()-0.5)*rem)
		}
		p1, err := e.Probabilities(u1)
		if err != nil {
			return false
		}
		p2, err := e.Probabilities(u2)
		if err != nil {
			return false
		}
		for k := range p1 {
			if p1[k] > math.Exp(eps)*p2[k]+1e-12 || p2[k] > math.Exp(eps)*p1[k]+1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestLaplaceRecommendPrefersHighUtility(t *testing.T) {
	l := Laplace{Epsilon: 2, Sensitivity: 1}
	rng := distribution.NewRNG(5)
	u := []float64{0, 5}
	wins := 0
	const n = 5000
	for i := 0; i < n; i++ {
		idx, err := l.Recommend(u, rng)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 1 {
			wins++
		}
	}
	if float64(wins)/n < 0.95 {
		t.Errorf("high-utility candidate won only %d/%d", wins, n)
	}
}

func TestLaplaceProbabilitiesN2MatchesSampling(t *testing.T) {
	l := Laplace{Epsilon: 1, Sensitivity: 2}
	u := []float64{4, 1}
	p, err := l.ProbabilitiesN2(u)
	if err != nil {
		t.Fatal(err)
	}
	probsSumToOne(t, p)
	rng := distribution.NewRNG(23)
	wins := 0
	const n = 200000
	for i := 0; i < n; i++ {
		idx, err := l.Recommend(u, rng)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 0 {
			wins++
		}
	}
	got := float64(wins) / n
	if math.Abs(got-p[0]) > 0.005 {
		t.Errorf("empirical win rate %g, Lemma 3 closed form %g", got, p[0])
	}
}

func TestLaplaceProbabilitiesN2Validation(t *testing.T) {
	l := Laplace{Epsilon: 1, Sensitivity: 1}
	if _, err := l.ProbabilitiesN2([]float64{1, 2, 3}); err == nil {
		t.Error("n=3 accepted")
	}
	if _, err := l.ProbabilitiesN2([]float64{1}); err == nil {
		t.Error("n=1 accepted")
	}
}

// TestLaplaceNotIsomorphicToExponential reproduces the Appendix E
// observation: at n=2 the two mechanisms assign provably different
// probabilities for generic utilities.
func TestLaplaceNotIsomorphicToExponential(t *testing.T) {
	u := []float64{3, 1}
	lp, err := (Laplace{Epsilon: 1, Sensitivity: 1}).ProbabilitiesN2(u)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := (Exponential{Epsilon: 1, Sensitivity: 1}).Probabilities(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lp[0]-ep[0]) < 1e-4 {
		t.Errorf("mechanisms unexpectedly identical: laplace %g vs exponential %g", lp[0], ep[0])
	}
}

// TestLaplaceDPRatioEmpiricalN2 checks the ε-DP guarantee on the exact n=2
// closed form: shifting one utility by the per-entry sensitivity Δf/2... the
// histogram argument actually permits each entry to move by up to Δf (L1);
// the ratio must stay within e^ε.
func TestLaplaceDPRatioEmpiricalN2(t *testing.T) {
	const eps, sens = 0.9, 2.0
	l := Laplace{Epsilon: eps, Sensitivity: sens}
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		u1 := []float64{5 * rng.Float64(), 5 * rng.Float64()}
		u2 := append([]float64(nil), u1...)
		// Move both entries, total L1 movement <= Δf.
		d0 := (rng.Float64() - 0.5) * sens
		u2[0] = math.Max(0, u2[0]+d0)
		rem := sens - math.Abs(u2[0]-u1[0])
		u2[1] = math.Max(0, u2[1]+(rng.Float64()-0.5)*rem)
		p1, err := l.ProbabilitiesN2(u1)
		if err != nil {
			return false
		}
		p2, err := l.ProbabilitiesN2(u2)
		if err != nil {
			return false
		}
		for k := range p1 {
			if p1[k] > math.Exp(eps)*p2[k]+1e-9 || p2[k] > math.Exp(eps)*p1[k]+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestSmoothingProbabilities(t *testing.T) {
	s := Smoothing{X: 0.6, Base: Best{}}
	p, err := s.Probabilities([]float64{1, 5, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	probsSumToOne(t, p)
	// (1-0.6)/4 = 0.1 floor everywhere; argmax gets +0.6.
	if math.Abs(p[1]-0.7) > 1e-12 {
		t.Errorf("p[1] = %g, want 0.7", p[1])
	}
	for _, i := range []int{0, 2, 3} {
		if math.Abs(p[i]-0.1) > 1e-12 {
			t.Errorf("p[%d] = %g, want 0.1", i, p[i])
		}
	}
}

func TestSmoothingValidation(t *testing.T) {
	rng := distribution.NewRNG(1)
	if _, err := (Smoothing{X: 1, Base: Best{}}).Recommend([]float64{1}, rng); err == nil {
		t.Error("x=1 accepted")
	}
	if _, err := (Smoothing{X: 0.5}).Recommend([]float64{1}, rng); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := (Smoothing{X: 0.5, Base: Laplace{Epsilon: 1, Sensitivity: 1}}).Probabilities([]float64{1, 2}); err == nil {
		t.Error("non-Distribution base should have no closed form")
	}
}

func TestSmoothingEpsilonTheorem5(t *testing.T) {
	// Theorem 5: A_S(x) is ln(1 + nx/(1-x))-differentially private.
	s := Smoothing{X: 0.5, Base: Best{}}
	if got, want := s.Epsilon(100), math.Log(101.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Epsilon = %g, want %g", got, want)
	}
	if got := (Smoothing{X: 0, Base: Best{}}).Epsilon(10); got != 0 {
		t.Errorf("x=0 should be perfectly private, got eps=%g", got)
	}
}

func TestSmoothingXForEpsilon(t *testing.T) {
	// Round trip: x -> eps -> x.
	for _, n := range []int{2, 100, 10000} {
		for _, x := range []float64{0.01, 0.3, 0.9} {
			eps := (Smoothing{X: x, Base: Best{}}).Epsilon(n)
			back, err := SmoothingXForEpsilon(eps, n)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(back-x) > 1e-9 {
				t.Errorf("n=%d x=%g: round trip gave %g", n, x, back)
			}
		}
	}
	if _, err := SmoothingXForEpsilon(-1, 10); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := SmoothingXForEpsilon(1, 0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestSmoothingPaperClosedForm(t *testing.T) {
	// Appendix F: for ε = 2c·ln n, x = (n^{2c}-1)/(n^{2c}-1+n).
	n := 50
	c := 0.4
	eps := 2 * c * math.Log(float64(n))
	x, err := SmoothingXForEpsilon(eps, n)
	if err != nil {
		t.Fatal(err)
	}
	n2c := math.Pow(float64(n), 2*c)
	want := (n2c - 1) / (n2c - 1 + float64(n))
	if math.Abs(x-want) > 1e-9 {
		t.Errorf("x = %g, paper closed form %g", x, want)
	}
}

// TestSmoothingDPRatio verifies Theorem 5's guarantee directly: for ANY two
// utility vectors of the same length (even adversarially unrelated ones),
// the probability ratio stays within e^{ln(1+nx/(1-x))}.
func TestSmoothingDPRatio(t *testing.T) {
	s := Smoothing{X: 0.3, Base: Best{}}
	err := quick.Check(func(seed int64) bool {
		rng := distribution.NewRNG(seed)
		n := 2 + rng.Intn(5)
		u1 := make([]float64, n)
		u2 := make([]float64, n)
		for i := range u1 {
			u1[i] = 10 * rng.Float64()
			u2[i] = 10 * rng.Float64()
		}
		p1, err := s.Probabilities(u1)
		if err != nil {
			return false
		}
		p2, err := s.Probabilities(u2)
		if err != nil {
			return false
		}
		bound := math.Exp(s.Epsilon(n))
		for k := range p1 {
			if p1[k] > bound*p2[k]+1e-12 || p2[k] > bound*p1[k]+1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestMechanismNames(t *testing.T) {
	cases := []struct {
		m    Mechanism
		want string
	}{
		{Best{}, "best"},
		{Uniform{}, "uniform"},
		{Exponential{Epsilon: 0.5, Sensitivity: 1}, "exponential(eps=0.5)"},
		{Laplace{Epsilon: 2, Sensitivity: 1}, "laplace(eps=2)"},
		{Smoothing{X: 0.25, Base: Best{}}, "smoothing(x=0.25,best)"},
	}
	for _, c := range cases {
		if got := c.m.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
}

func TestUniformProbabilities(t *testing.T) {
	p, err := Uniform{}.Probabilities([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	probsSumToOne(t, p)
	for _, x := range p {
		if x != 0.25 {
			t.Errorf("p = %v", p)
		}
	}
}
