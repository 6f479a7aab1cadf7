package socialrec

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"socialrec/internal/distribution"
)

func topKGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateSocialGraph(200, 1200, 21)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pickTarget returns a node with enough candidates for top-k tests.
func pickTarget(t *testing.T, g *Graph) int {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) >= 3 && len(g.TwoHopNeighborhood(v)) >= 5 {
			return v
		}
	}
	t.Fatal("no suitable target")
	return -1
}

func TestRecommendTopKAllMechanisms(t *testing.T) {
	g := topKGraph(t)
	target := pickTarget(t, g)
	for _, kind := range []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone} {
		r, err := NewRecommender(g, WithMechanism(kind), WithSeed(4), WithEpsilon(2))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		recs, err := r.RecommendTopK(target, 4)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(recs) != 4 {
			t.Fatalf("%v: got %d recommendations", kind, len(recs))
		}
		seen := map[int]bool{}
		for i, rec := range recs {
			if rec.Target != target {
				t.Errorf("%v: target %d", kind, rec.Target)
			}
			if rec.Node == target || g.HasEdge(target, rec.Node) {
				t.Errorf("%v: recommended self or existing neighbor %d", kind, rec.Node)
			}
			if seen[rec.Node] {
				t.Errorf("%v: duplicate node %d", kind, rec.Node)
			}
			seen[rec.Node] = true
			if i > 0 && recs[i-1].Utility < rec.Utility {
				t.Errorf("%v: results not sorted by utility", kind)
			}
		}
	}
}

func TestRecommendTopKNonPrivateIsExact(t *testing.T) {
	g := topKGraph(t)
	target := pickTarget(t, g)
	r, err := NewRecommender(g, NonPrivate())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.RecommendTopK(target, 3)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Utility != recs[0].MaxUtility {
		t.Errorf("first pick should be the max: %+v", recs[0])
	}
}

func TestRecommendTopKValidation(t *testing.T) {
	g := topKGraph(t)
	target := pickTarget(t, g)
	r, err := NewRecommender(g, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RecommendTopK(target, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := r.RecommendTopK(target, g.NumNodes()+5); err == nil {
		t.Error("huge k accepted")
	}
	if _, err := r.RecommendTopK(-1, 2); !errors.Is(err, ErrBadTarget) {
		t.Error("bad target accepted")
	}
}

func TestRecommendTopKDeterministic(t *testing.T) {
	g := topKGraph(t)
	target := pickTarget(t, g)
	r, err := NewRecommender(g, WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.RecommendTopK(target, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RecommendTopK(target, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("not deterministic: %v vs %v", a, b)
		}
	}
}

func TestRecommendTopKWithRNG(t *testing.T) {
	g := topKGraph(t)
	target := pickTarget(t, g)
	r, err := NewRecommender(g, WithEpsilon(5))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.RecommendTopKWithRNG(target, 2, distribution.NewRNG(3))
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

// TestRecommenderConcurrentUse exercises the documented concurrency safety
// of a constructed Recommender under the race detector. Without a cache
// every request borrows pooled kernel scratch, so concurrent requests must
// still reproduce the sequential answers exactly: a support read after its
// release would pick up another request's utilities.
func TestRecommenderConcurrentUse(t *testing.T) {
	g := topKGraph(t)
	r, err := NewRecommender(g, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		rec  Recommendation
		topK []Recommendation
		err  error
	}
	serve := func(target int) answer {
		rec, err := r.Recommend(target)
		if err != nil {
			return answer{err: err}
		}
		topK, err := r.RecommendTopK(target, 3)
		return answer{rec: rec, topK: topK, err: err}
	}
	want := make([]answer, g.NumNodes())
	for target := range want {
		want[target] = serve(target)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			for round := 0; round < 4; round++ {
				for target := w; target < g.NumNodes(); target += 8 {
					got := serve(target)
					if (got.err == nil) != (want[target].err == nil) || got.rec != want[target].rec ||
						!slices.Equal(got.topK, want[target].topK) {
						done <- fmt.Errorf("target %d: concurrent %+v, sequential %+v", target, got, want[target])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
