package mechanism

import (
	"testing"

	"socialrec/internal/distribution"
)

func benchVector(n int) []float64 {
	rng := distribution.NewRNG(1)
	u := make([]float64, n)
	for i := range u {
		if rng.Float64() < 0.02 {
			u[i] = float64(1 + rng.Intn(20))
		}
	}
	u[n/2] = 25
	return u
}

func BenchmarkExponentialProbabilities(b *testing.B) {
	u := benchVector(10000)
	e := Exponential{Epsilon: 1, Sensitivity: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Probabilities(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExponentialRecommend(b *testing.B) {
	u := benchVector(10000)
	e := Exponential{Epsilon: 1, Sensitivity: 2}
	rng := distribution.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Recommend(u, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLaplaceRecommend(b *testing.B) {
	u := benchVector(10000)
	l := Laplace{Epsilon: 1, Sensitivity: 2}
	rng := distribution.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Recommend(u, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGumbelMaxRecommend(b *testing.B) {
	u := benchVector(10000)
	g := GumbelMax{Epsilon: 1, Sensitivity: 2}
	rng := distribution.NewRNG(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Recommend(u, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKLaplace(b *testing.B) {
	u := benchVector(10000)
	rng := distribution.NewRNG(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopKLaplace(1, 2, u, 5, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloAccuracy1000(b *testing.B) {
	u := benchVector(2000)
	l := Laplace{Epsilon: 1, Sensitivity: 2}
	rng := distribution.NewRNG(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloAccuracy(l, u, 1000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSparse returns the two sparse shapes the exponential weight loops
// see in serving, each with about 2400 nonzero utilities and a zero tail of
// about 4700 candidates (a median perfbench target's support):
//
//   - common-neighbours: integer levels, most of them small (the count
//     halves per level) with a maximum of 40, so the weights come from the
//     level table;
//   - weighted-paths: the same path counts plus γ=0.005 times a count of
//     longer paths, so the values are fractional and every weight takes its
//     own exp.
func benchSparse() []struct {
	name string
	s    SparseVec
} {
	rng := distribution.NewRNG(7)
	cn := make([]float64, 2400)
	wp := make([]float64, len(cn))
	for i := range cn {
		l := 1
		for l < 40 && rng.Intn(2) == 0 {
			l++
		}
		cn[i] = float64(l)
		wp[i] = float64(l) + 0.005*float64(rng.Intn(200))
	}
	cn[len(cn)/3], wp[len(wp)/3] = 40, 40.5
	return []struct {
		name string
		s    SparseVec
	}{
		{"common-neighbours", SparseVec{Val: cn, N: len(cn) + 4700}},
		{"weighted-paths", SparseVec{Val: wp, N: len(wp) + 4700}},
	}
}

func BenchmarkExponentialRecommendSparse(b *testing.B) {
	e := Exponential{Epsilon: 1, Sensitivity: 2}
	for _, c := range benchSparse() {
		b.Run(c.name, func(b *testing.B) {
			rng := distribution.NewRNG(8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.RecommendSparse(c.s, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopKPeelSparse(b *testing.B) {
	for _, c := range benchSparse() {
		b.Run(c.name, func(b *testing.B) {
			rng := distribution.NewRNG(9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := TopKPeelSparse(1, 2, c.s, 5, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
