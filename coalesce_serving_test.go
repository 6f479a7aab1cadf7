package socialrec

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"socialrec/internal/gen"
)

// These tests pin the DP-safety contract of request coalescing (see doc.go):
// the coalescer shares only the deterministic pre-noise stage, so (a) the
// output distribution under heavy concurrent coalescing is the same as the
// sequential uncoalesced mechanism's, and (b) when no concurrency exists —
// every group a singleton — the served bytes are identical to the
// uncoalesced path under fixed seeds.

// coalesceTestTarget finds a serveable target with a small nonzero support
// (chunky chi-squared cells) on the given recommender.
func coalesceTestTarget(t *testing.T, rec *Recommender) (int, *cachedVector) {
	t.Helper()
	st := rec.state.Load()
	for cand := 0; cand < st.snap.NumNodes(); cand++ {
		v, err := rec.computeVector(st, cand)
		if err != nil || v.umax == 0 {
			continue
		}
		if len(v.idx) >= 2 && len(v.idx) <= 6 && v.ncand > len(v.idx) {
			return cand, v
		}
	}
	t.Fatal("no target with a small support found")
	return -1, nil
}

// TestCoalescedDrawsIndependentGOF: many goroutines hammer one target
// through a coalesced recommender, each request drawing from its own
// RequestRNG stream — so nearly every draw rides on a shared group
// computation. The empirical recommendation distribution must match a
// sequential, uncoalesced recommender's (two-sample chi-squared): sharing
// the pre-noise stage must not correlate or shift the noise draws.
func TestCoalescedDrawsIndependentGOF(t *testing.T) {
	crit := map[int]float64{ // alpha = 1e-3
		2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458, 7: 24.322, 8: 26.124,
	}
	g, err := gen.PowerLawConfiguration(150, 220, 1, 1.2, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	coalesced, err := NewRecommender(g, WithEpsilon(1), WithSeed(4),
		WithCoalescing(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer coalesced.Close()
	target, cv := coalesceTestTarget(t, coalesced)
	cellOf := func(node int) int {
		for i, id := range cv.idx {
			if int(id) == node {
				return i
			}
		}
		return len(cv.idx) // the zero-utility tail
	}
	cells := len(cv.idx) + 1

	const trials = 60000
	const workers = 16
	concurrent := make([]int, cells)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]int, cells)
			for i := 0; i < trials/workers; i++ {
				recd, err := coalesced.RecommendWithRNG(target, coalesced.RequestRNG())
				if err != nil {
					t.Error(err)
					return
				}
				local[cellOf(recd.Node)]++
			}
			mu.Lock()
			for i, n := range local {
				concurrent[i] += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if st, ok := coalesced.CoalesceStats(); !ok || st.Shared == 0 {
		t.Fatalf("workload never coalesced (stats %+v, ok=%v) — the test would prove nothing", st, ok)
	}

	plain, err := NewRecommender(g, WithEpsilon(1), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	sequential := make([]int, cells)
	rng := rand.New(rand.NewSource(202))
	for i := 0; i < trials; i++ {
		recd, err := plain.RecommendWithRNG(target, rng)
		if err != nil {
			t.Fatal(err)
		}
		sequential[cellOf(recd.Node)]++
	}

	stat := 0.0
	for i := range concurrent {
		n := float64(concurrent[i] + sequential[i])
		if n == 0 {
			continue
		}
		d := float64(concurrent[i] - sequential[i])
		stat += d * d / n
	}
	c, ok := crit[cells-1]
	if !ok {
		t.Fatalf("no critical value for df=%d", cells-1)
	}
	if stat > c {
		t.Fatalf("target %d: coalesced concurrent draws diverge from sequential: chi-squared %.3f > %.3f\nconcurrent: %v\nsequential: %v",
			target, stat, c, concurrent, sequential)
	}
}

// TestCoalescingSingletonBitIdentical: with no concurrency every group is a
// singleton, and a coalesced recommender must serve exactly the bytes the
// uncoalesced one does under the same seed — Recommend, RecommendTopK, and
// the explicit-RNG variants alike. This is the "coalescing is pure
// pre-processing" half of the DP argument made executable.
func TestCoalescingSingletonBitIdentical(t *testing.T) {
	g, err := gen.PowerLawConfiguration(300, 900, 1, 1.2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewRecommender(g, WithEpsilon(1), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	coalesced, err := NewRecommender(g, WithEpsilon(1), WithSeed(8),
		WithCoalescing(time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer coalesced.Close()

	checked := 0
	for target := 0; target < g.NumNodes() && checked < 25; target++ {
		a, errA := plain.Recommend(target)
		b, errB := coalesced.Recommend(target)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("target %d: plain err %v, coalesced err %v", target, errA, errB)
		}
		if errA != nil {
			continue
		}
		checked++
		if a != b {
			t.Errorf("target %d: Recommend plain %+v != coalesced %+v", target, a, b)
		}
		ka, errA := plain.RecommendTopK(target, 3)
		kb, errB := coalesced.RecommendTopK(target, 3)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("target %d: topk plain err %v, coalesced err %v", target, errA, errB)
		}
		if errA == nil {
			if len(ka) != len(kb) {
				t.Fatalf("target %d: topk lengths %d vs %d", target, len(ka), len(kb))
			}
			for i := range ka {
				if ka[i] != kb[i] {
					t.Errorf("target %d rank %d: topk plain %+v != coalesced %+v", target, i, ka[i], kb[i])
				}
			}
		}
		// The explicit-RNG path (what the HTTP layer uses via RequestRNG):
		// identical streams must yield identical draws.
		ra, errA := plain.RecommendWithRNG(target, rand.New(rand.NewSource(int64(target))))
		rb, errB := coalesced.RecommendWithRNG(target, rand.New(rand.NewSource(int64(target))))
		if errA != nil || errB != nil {
			t.Fatalf("target %d: withRNG errs %v / %v", target, errA, errB)
		}
		if ra != rb {
			t.Errorf("target %d: WithRNG plain %+v != coalesced %+v", target, ra, rb)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d serveable targets checked", checked)
	}
	if st, ok := coalesced.CoalesceStats(); !ok || st.Shared != 0 || st.Groups == 0 {
		t.Fatalf("sequential workload should form only singleton groups, got %+v (ok=%v)", st, ok)
	}
}

// TestPrecomputeRoutesThroughCoalescer: cache warming goes through the same
// shared-computation path as serving (DoNow — no deadline wait), so warmed
// targets land in the cache and show up in the coalescer's counters, and
// subsequent serving hits the cache without recomputing.
func TestPrecomputeRoutesThroughCoalescer(t *testing.T) {
	g, err := gen.PowerLawConfiguration(300, 900, 1, 1.2, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecommender(g, WithEpsilon(1), WithSeed(1),
		WithCache(256), WithCoalescing(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	targets := []int{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3} // duplicates dedup before warming
	warmed := rec.Precompute(targets)
	if warmed != 8 {
		t.Fatalf("warmed %d targets, want 8", warmed)
	}
	st, ok := rec.CoalesceStats()
	if !ok {
		t.Fatal("coalescing not enabled")
	}
	if st.Requests < 8 || st.Groups < 8 {
		t.Fatalf("warming bypassed the coalescer: %+v", st)
	}
	// Precompute must not have paid the deadline window per target: 8
	// sequential 1ms waits would be visible; DoNow waits for none. Proxy
	// check: re-warming is a no-op (cache contains the entries)...
	if again := rec.Precompute(targets); again != 8 {
		t.Fatalf("re-warm reported %d targets, want 8 (cached)", again)
	}
	if st2, _ := rec.CoalesceStats(); st2.Requests != st.Requests {
		t.Fatalf("re-warm of cached targets recomputed: %+v -> %+v", st, st2)
	}
	// ...and serving the warmed targets is all cache hits.
	cs, _ := rec.CacheStats()
	for _, target := range targets {
		if _, err := rec.Recommend(target); err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
	}
	cs2, _ := rec.CacheStats()
	if cs2.Misses != cs.Misses {
		t.Fatalf("serving warmed targets missed the cache: %d -> %d misses", cs.Misses, cs2.Misses)
	}
}
