package socialrec

// Property tests that the per-request pre-noise stage — the utility kernel
// streams the sparse support straight into pooled scratch, which the
// mechanism reads and the request releases, nothing owned or kept — is
// bit-identical to the materialized stage a cache keeps: owned copies of
// the support and tail-rank table plus, for the exponential mechanism, the
// precomputed sparse CDF. Same seed, same graph: the two arms must return
// the same recommendation and the same errors for every target, across all
// utilities, mechanisms, directedness, and both the single-draw and top-k
// APIs. The streamed arm is the default recommender (no cache, no
// coalescer); the materialized arm is the identical construction plus a
// cache large enough to hold every target, queried twice per target so
// both the miss (freshly materialized) and the hit (read back from the
// cache) are compared.

import (
	"errors"
	"testing"
)

func streamingMechanisms() []MechanismKind {
	return []MechanismKind{MechanismExponential, MechanismLaplace, MechanismSmoothing, MechanismNone}
}

// sameError demands the same outcome down to the message: both arms must
// produce the same error strings, not just the same sentinels.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// streamedAndMaterialized builds the two arms over g with the same options.
func streamedAndMaterialized(t *testing.T, g *Graph, opts ...Option) (streamed, materialized *Recommender) {
	t.Helper()
	streamed, err := NewRecommender(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err = NewRecommender(g, append(opts, WithCache(1<<12))...)
	if err != nil {
		t.Fatal(err)
	}
	return streamed, materialized
}

func TestStreamingBitIdenticalToMaterialized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := servingTestGraph(t, directed, 41)
		for _, u := range servingUtilities() {
			for _, kind := range streamingMechanisms() {
				streamed, materialized := streamedAndMaterialized(t, g,
					WithEpsilon(1), WithSeed(7), WithUtility(u), WithMechanism(kind))
				for target := 0; target < g.NumNodes(); target++ {
					for round := 0; round < 2; round++ { // round 1 hits the cache
						a, err1 := streamed.Recommend(target)
						b, err2 := materialized.Recommend(target)
						if !sameError(err1, err2) {
							t.Fatalf("%s/%v directed=%v target %d round %d: streamed err %v vs materialized err %v",
								u.Name(), kind, directed, target, round, err1, err2)
						}
						if a != b {
							t.Fatalf("%s/%v directed=%v target %d round %d: streamed %+v vs materialized %+v",
								u.Name(), kind, directed, target, round, a, b)
						}
					}
				}
				if st, _ := materialized.CacheStats(); st.Hits == 0 {
					t.Fatalf("%s/%v directed=%v: materialized arm never read back from its cache: %+v",
						u.Name(), kind, directed, st)
				}
				streamed.Close()
				materialized.Close()
			}
		}
	}
}

func TestStreamingTopKBitIdenticalToMaterialized(t *testing.T) {
	for _, directed := range []bool{false, true} {
		g := servingTestGraph(t, directed, 43)
		for _, u := range servingUtilities() {
			for _, kind := range streamingMechanisms() {
				streamed, materialized := streamedAndMaterialized(t, g,
					WithEpsilon(1), WithSeed(11), WithUtility(u), WithMechanism(kind))
				for target := 0; target < g.NumNodes(); target++ {
					for round := 0; round < 2; round++ {
						for _, k := range []int{1, 3, 7} {
							a, err1 := streamed.RecommendTopK(target, k)
							b, err2 := materialized.RecommendTopK(target, k)
							if !sameError(err1, err2) {
								t.Fatalf("%s/%v directed=%v target %d k=%d: streamed err %v vs materialized err %v",
									u.Name(), kind, directed, target, k, err1, err2)
							}
							if len(a) != len(b) {
								t.Fatalf("%s/%v directed=%v target %d k=%d: streamed %d picks vs materialized %d",
									u.Name(), kind, directed, target, k, len(a), len(b))
							}
							for i := range a {
								if a[i] != b[i] {
									t.Fatalf("%s/%v directed=%v target %d k=%d: pick %d streamed %+v vs materialized %+v",
										u.Name(), kind, directed, target, k, i, a[i], b[i])
								}
							}
						}
					}
				}
				streamed.Close()
				materialized.Close()
			}
		}
	}
}

// TestStreamingErrorsMatchMaterialized pins the RNG-silent error paths: a
// bad target and a hopeless (no-candidate) target must produce the same
// sentinel through both arms.
func TestStreamingErrorsMatchMaterialized(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	streamed, materialized := streamedAndMaterialized(t, g, WithEpsilon(1), WithSeed(1))
	defer streamed.Close()
	defer materialized.Close()
	for _, rec := range []*Recommender{streamed, materialized} {
		for _, target := range []int{-1, 4} {
			if _, err := rec.Recommend(target); !errors.Is(err, ErrBadTarget) {
				t.Fatalf("Recommend(%d): %v, want ErrBadTarget", target, err)
			}
			if _, err := rec.RecommendTopK(target, 1); !errors.Is(err, ErrBadTarget) {
				t.Fatalf("RecommendTopK(%d): %v, want ErrBadTarget", target, err)
			}
		}
		// Node 3 is isolated: no common neighbors with anyone, so no
		// candidate has positive utility.
		if _, err := rec.Recommend(3); !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("Recommend(3): %v, want ErrNoCandidates", err)
		}
	}
}
