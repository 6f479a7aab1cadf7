package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"socialrec"
	"socialrec/internal/distribution"
	"socialrec/internal/load"
	"socialrec/internal/recserver"
	"socialrec/internal/utility"
)

// The coalesce benchmark measures the deadline-window request coalescer on
// the workload it exists for: a closed-loop burst of concurrent requests
// whose targets concentrate (Zipf) on a few expensive hub nodes, served
// UNCACHED so every request pays the pre-noise stage — once per request
// without the coalescer, once per deadline group with it. Both arms run the
// identical pre-drawn schedule with the same worker count, so the ns/op gap
// is purely the coalescer.

// coalesceBenchResult is the `coalesce` section of BENCH_serve.json.
type coalesceBenchResult struct {
	Nodes      int `json:"nodes"`
	Edges      int `json:"edges"`
	HotTargets int `json:"hot_targets"`
	Workers    int `json:"workers"`
	Requests   int `json:"requests"`
	// WindowUs is the coalescing deadline window in microseconds.
	WindowUs        float64 `json:"window_us"`
	UncoalescedNsOp float64 `json:"uncoalesced_ns_per_op"`
	CoalescedNsOp   float64 `json:"coalesced_ns_per_op"`
	Speedup         float64 `json:"speedup"`
	// Groups is how many shared computations served the coalesced arm's
	// requests; SharedRatio is the fraction of requests that rode along on
	// another request's computation instead of paying their own.
	Groups      uint64  `json:"groups"`
	SharedRatio float64 `json:"shared_ratio"`
}

// hubTargets returns the hotCount serveable targets with the largest sparse
// support — the most expensive pre-noise computations, i.e. the targets
// where duplicated work hurts most.
func hubTargets(g *socialrec.Graph, hotCount int) ([]int, error) {
	snap := g.Snapshot()
	cn := utility.CommonNeighbors{}
	type cand struct{ target, support int }
	var cands []cand
	for v := 0; v < snap.NumNodes(); v++ {
		idx, val, err := cn.Sparse(snap, v)
		if err != nil {
			return nil, err
		}
		if utility.Max(val) == 0 {
			continue
		}
		cands = append(cands, cand{target: v, support: len(idx)})
	}
	if len(cands) == 0 {
		return nil, errors.New("coalesce bench: no serveable targets")
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].support > cands[j].support })
	if len(cands) > hotCount {
		cands = cands[:hotCount]
	}
	hot := make([]int, len(cands))
	for i, c := range cands {
		hot[i] = c.target
	}
	return hot, nil
}

func runCoalesceBench(g *socialrec.Graph, quick bool) (coalesceBenchResult, error) {
	const window = 200 * time.Microsecond
	res := coalesceBenchResult{
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		HotTargets: 16,
		Workers:    256,
		Requests:   32768,
		WindowUs:   float64(window) / float64(time.Microsecond),
	}
	if quick {
		res.Workers = 64
		res.Requests = 8192
	}

	hot, err := hubTargets(g, res.HotTargets)
	if err != nil {
		return res, err
	}
	res.HotTargets = len(hot)
	zipf := rand.NewZipf(distribution.NewRNG(21), 1.3, 1, uint64(len(hot)-1))
	schedule := make([]int, res.Requests)
	for i := range schedule {
		schedule[i] = hot[zipf.Uint64()]
	}

	// Closed-loop arm: workers goroutines drain the shared schedule back to
	// back. Wall time over total requests is the per-op cost under exactly
	// the concurrency the coalescer needs to form groups.
	runArm := func(rec *socialrec.Recommender) float64 {
		var next atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < res.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(len(schedule)) {
						return
					}
					if _, err := rec.Recommend(schedule[i]); err != nil {
						panic(err)
					}
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(start).Nanoseconds()) / float64(len(schedule))
	}

	plain, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(1), socialrec.WithSeed(1))
	if err != nil {
		return res, err
	}
	defer plain.Close()
	res.UncoalescedNsOp = runArm(plain)

	coalesced, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(1), socialrec.WithSeed(1),
		socialrec.WithCoalescing(window))
	if err != nil {
		return res, err
	}
	defer coalesced.Close()
	res.CoalescedNsOp = runArm(coalesced)
	if res.CoalescedNsOp > 0 {
		res.Speedup = res.UncoalescedNsOp / res.CoalescedNsOp
	}
	if st, ok := coalesced.CoalesceStats(); ok {
		res.Groups = st.Groups
		if st.Requests > 0 {
			res.SharedRatio = float64(st.Shared) / float64(st.Requests)
		}
	}
	return res, nil
}

// The loadtest scenario runs the real HTTP serving stack (recserver over
// httptest, cache + coalescing on) under internal/load's open-loop driver:
// a fixed arrival schedule of Zipf-hot /v1/recommend requests, latency
// charged from each request's scheduled arrival (coordinated-omission
// aware), followed by a closed-loop saturation probe for the capacity
// number.

// loadtestResult is the `loadtest` section of BENCH_serve.json.
type loadtestResult struct {
	Nodes      int     `json:"nodes"`
	Edges      int     `json:"edges"`
	HotTargets int     `json:"hot_targets"`
	ZipfS      float64 `json:"zipf_s"`
	K          int     `json:"k"`
	// OpenLoop carries offered/achieved QPS and the p50/p90/p99/p99.9
	// latency summary (see internal/load).
	OpenLoop load.Report `json:"open_loop"`
	// SaturationQPS is the closed-loop throughput ceiling under
	// SaturationWorkers concurrent requesters.
	SaturationQPS     float64 `json:"saturation_qps"`
	SaturationReqs    int64   `json:"saturation_requests"`
	SaturationWorkers int     `json:"saturation_workers"`
	// Runtime memory behaviour over the open-loop window
	// (runtime.ReadMemStats deltas): heap allocations performed, GC cycles
	// completed, and total stop-the-world pause. Allocation pressure is
	// what the pooled request path attacks, so the load test tracks it next
	// to latency.
	TotalAllocs   uint64 `json:"total_allocs"`
	GCCycles      uint32 `json:"gc_cycles"`
	GCPauseTotalN uint64 `json:"gc_pause_total_ns"`
}

func runLoadtestBench(g *socialrec.Graph, quick bool) (loadtestResult, error) {
	res := loadtestResult{
		Nodes:             g.NumNodes(),
		Edges:             g.NumEdges(),
		HotTargets:        64,
		ZipfS:             1.2,
		K:                 1,
		SaturationWorkers: 64,
	}
	qps, duration, saturate := 1000.0, 2*time.Second, 1500*time.Millisecond
	if quick {
		qps, duration, saturate = 500, time.Second, 500*time.Millisecond
		res.SaturationWorkers = 32
	}

	hot, err := hubTargets(g, res.HotTargets)
	if err != nil {
		return res, err
	}
	res.HotTargets = len(hot)

	rec, err := socialrec.NewRecommender(g, socialrec.WithEpsilon(1), socialrec.WithSeed(1),
		socialrec.WithCache(socialrec.DefaultCacheSize))
	if err != nil {
		return res, err
	}
	defer rec.Close()
	srv, err := recserver.New(recserver.Config{
		Recommender:    rec,
		CoalesceWindow: socialrec.DefaultCoalesceWindow,
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		return res, err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	zipf := rand.NewZipf(distribution.NewRNG(22), res.ZipfS, 1, uint64(len(hot)-1))
	total := int(qps*duration.Seconds()) + 1
	paths := make([]string, total)
	for i := range paths {
		paths[i] = ts.URL + "/v1/recommend?k=" + strconv.Itoa(res.K) +
			"&target=" + strconv.Itoa(hot[zipf.Uint64()])
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        load.DefaultWorkers + res.SaturationWorkers,
			MaxIdleConnsPerHost: load.DefaultWorkers + res.SaturationWorkers,
		},
	}
	do := func(i int) error {
		resp, err := client.Get(paths[i%total])
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res.OpenLoop, err = load.Run(load.Config{QPS: qps, Duration: duration, Do: do})
	runtime.ReadMemStats(&after)
	if err != nil {
		return res, err
	}
	res.TotalAllocs = after.Mallocs - before.Mallocs
	res.GCCycles = after.NumGC - before.NumGC
	res.GCPauseTotalN = after.PauseTotalNs - before.PauseTotalNs
	res.SaturationReqs, res.SaturationQPS, err = load.Saturate(res.SaturationWorkers, saturate, do)
	if err != nil {
		return res, err
	}
	return res, nil
}
