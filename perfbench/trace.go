package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"socialrec"
	"socialrec/internal/budget"
	"socialrec/internal/distribution"
	"socialrec/internal/graph"
	"socialrec/internal/mechanism"
	"socialrec/internal/utility"
	"socialrec/internal/wal"
)

// spanName is a layer boundary the traced run times. Spans are recorded
// from the benchmark's own files: after each request, its stages are issued
// again through each layer's public function on the same snapshot, and
// each call's duration becomes a span.
type spanName uint8

const (
	spRequest spanName = iota // recserver.Server.ServeHTTP
	spRNG                     // socialrec.Recommender.RequestRNG
	spCall                    // socialrec.Accountant / Recommender ...WithRNG
	spReserve                 // budget.Manager.Reserve + Reservation.Refund
	spSparse                  // utility.Function.Sparse
	spCDF                     // mechanism.Exponential.SparseCDF
	spSample                  // mechanism.SampleSparseCDF
	spDraw                    // mechanism.Exponential.RecommendSparse
	spTopK                    // mechanism.TopKPeelSparse, k=5
	spWAL                     // wal.WAL.Append
	spWrite                   // recserver.Server.ServeHTTP of a write
	numSpans
)

var spanNames = [numSpans]string{
	"recserver.request", "distribution.request_rng", "socialrec.request", "budget.reserve",
	"utility.sparse", "mechanism.cdf", "mechanism.sample", "mechanism.draw", "mechanism.topk", "wal.append", "recserver.write",
}

// span is one timed call. Spans of one request share req; parent indexes
// the span that caused it, or is -1 for the request itself and for probes:
// layer calls the request's own path did not make (top-k on a k=1 read, the
// uncached draw on a cache hit), timed for the layer's cost on the same
// input but left out of the request's accounting.
type span struct {
	req    int32
	name   spanName
	parent int32
	dur    int64
}

// traceEvery samples the traced reads: one read in traceEvery per worker
// is traced, the rest run as in the untraced run. Re-issuing a read's
// stages costs several times the read itself, so tracing every read would
// saturate the program at the workloads' rates and measure the tracer.
const traceEvery = 8

// tracer re-issues sampled requests' stages through the layers' public
// functions. A traced read holds gate exclusively for the request and its
// re-issued socialrec call, so the cache counters around it say exactly
// whether it hit; other requests hold gate shared. The remaining stages
// are pure functions of the snapshot and run outside the gate.
type tracer struct {
	gate    sync.RWMutex
	s       *server
	acct    *socialrec.Accountant
	mgr     *budget.Manager
	wal     *wal.WAL
	mech    mechanism.Exponential
	util    utility.CommonNeighbors
	cacheOn bool
	// csr mirrors the snapshot serving reads: version csrVer, covering the
	// first applied acknowledged writes. Guarded by gate held exclusively.
	csr     *graph.CSR
	csrVer  uint32
	applied uint64
	patches []int64
	// Per-worker state.
	clients []*client
	rngs    []*rand.Rand
	spans   [][]span
	nnz     [][]int
	count   []int
}

func newTracer(s *server, dir string, workers int) (*tracer, error) {
	tr := &tracer{
		s:       s,
		mgr:     budget.NewManager(budget.Limits{PerPrincipal: s.w.perPrincipal}),
		mech:    mechanism.Exponential{Epsilon: epsilon, Sensitivity: s.rec.Sensitivity()},
		cacheOn: s.w.cache != 0,
		csr:     s.in.csr,
		spans:   make([][]span, workers),
		nnz:     make([][]int, workers),
		count:   make([]int, workers),
	}
	if s.w.perPrincipal > 0 {
		acct, err := socialrec.NewAccountant(s.rec, 0, socialrec.PerPrincipalBudget(s.w.perPrincipal), socialrec.DisableLedger())
		if err != nil {
			return nil, err
		}
		tr.acct = acct
	}
	if s.w.live {
		w, _, err := wal.Open(filepath.Join(dir, "trace-wal-"+s.w.name), wal.Options{Policy: wal.SyncInterval})
		if err != nil {
			return nil, err
		}
		tr.wal = w
	}
	for i := range workers {
		tr.clients = append(tr.clients, &client{})
		tr.rngs = append(tr.rngs, distribution.SplitN(s.in.seed, "trace", i))
	}
	return tr, nil
}

func (tr *tracer) close() {
	if tr.wal != nil {
		tr.wal.Close()
	}
}

func timed(f func()) int64 {
	t := time.Now()
	f()
	return time.Since(t).Nanoseconds()
}

func (tr *tracer) add(worker int, req int32, name spanName, parent int32, dur int64) int32 {
	tr.spans[worker] = append(tr.spans[worker], span{req: req, name: name, parent: parent, dur: dur})
	return int32(len(tr.spans[worker]) - 1)
}

// syncSnapshot brings csr to the version now serving reads, timing each
// graph Store.Patch over the delta batch the program folded in.
func (tr *tracer) syncSnapshot() {
	v := uint32(tr.s.rec.SnapshotVersion())
	if v == tr.csrVer {
		return
	}
	if err := tr.s.observe(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	tr.s.verMu.Lock()
	ver, ok := tr.s.versions[v]
	tr.s.verMu.Unlock()
	if !ok || ver.covered > uint64(len(tr.s.acked)) {
		return
	}
	if ver.covered > tr.applied {
		batch := deltas(tr.s.acked[tr.applied:ver.covered])
		var next *graph.CSR
		tr.patches = append(tr.patches, timed(func() { next = tr.csr.Patch(batch) }))
		tr.csr, tr.applied = next, ver.covered
	}
	tr.csrVer = v
}

// exec is the traced execFunc.
func (tr *tracer) exec(worker int, o op, r *result) {
	s := tr.s
	n := tr.count[worker]
	tr.count[worker]++
	id := int32(n*len(tr.count) + worker)
	if o.kind == opWrite {
		tr.gate.Lock()
		tr.syncSnapshot()
		d := timed(func() { s.exec(tr.clients[worker], o, r) })
		tr.gate.Unlock()
		root := tr.add(worker, id, spWrite, -1, d)
		if r.status == 201 {
			rec := wal.Record{Op: uint8(graph.DeltaAddEdge), From: int64(r.target), To: int64(r.to)}
			tr.add(worker, id, spWAL, root, timed(func() { _, _ = tr.wal.Append(rec) }))
		}
		return
	}
	if n%traceEvery != 0 {
		tr.gate.RLock()
		s.exec(tr.clients[worker], o, r)
		tr.gate.RUnlock()
		return
	}
	t, k := int(o.target), int(o.k)
	var rng *rand.Rand
	tr.gate.Lock()
	if s.w.live {
		tr.syncSnapshot()
	}
	csr := tr.csr
	st0, _ := s.rec.CacheStats()
	request := timed(func() { s.exec(tr.clients[worker], o, r) })
	st1, _ := s.rec.CacheStats()
	rngDur := timed(func() { rng = s.rec.RequestRNG() })
	callDur := timed(func() {
		switch {
		case tr.acct != nil && k == 1:
			_, _ = tr.acct.RecommendWithRNG(t, rng)
		case tr.acct != nil:
			_, _ = tr.acct.RecommendTopKWithRNG(t, k, rng)
		case k == 1:
			_, _ = s.rec.RecommendWithRNG(t, rng)
		default:
			_, _ = s.rec.RecommendTopKWithRNG(t, k, rng)
		}
	})
	tr.gate.Unlock()
	hit := tr.cacheOn && st1.Misses == st0.Misses && st1.Hits > st0.Hits

	prng := tr.rngs[worker]
	reserve := timed(func() {
		if res, err := tr.mgr.Reserve(strconv.Itoa(t), epsilon); err == nil {
			res.Refund()
		}
	})
	var val []float64
	sparse := timed(func() { _, val, _ = tr.util.Sparse(csr, t) })
	tr.nnz[worker] = append(tr.nnz[worker], len(val))
	var cdf, sample, draw, topk int64
	if len(val) > 0 {
		sv := mechanism.SparseVec{Val: val, N: utility.CandidateCount(csr, t)}
		var c *mechanism.SparseCDF
		cdf = timed(func() { c, _ = tr.mech.SparseCDF(sv) })
		sample = timed(func() { mechanism.SampleSparseCDF(c, prng) })
		draw = timed(func() { _, _ = tr.mech.RecommendSparse(sv, prng) })
		topk = timed(func() { _, _ = mechanism.TopKPeelSparse(epsilon, tr.mech.Sensitivity, sv, topK, prng) })
	}

	// The stages the request's own path ran become children of the call;
	// the rest are probes. On a cache miss the re-issued call hits the
	// entry the request just filled, so the miss-only stages are added to
	// the call's span.
	type stage struct {
		name spanName
		dur  int64
	}
	var path, probes []stage
	if tr.acct != nil {
		path = append(path, stage{spReserve, reserve})
	} else {
		probes = append(probes, stage{spReserve, reserve})
	}
	miss := !hit
	if miss {
		path = append(path, stage{spSparse, sparse})
	} else {
		probes = append(probes, stage{spSparse, sparse})
	}
	if len(val) > 0 {
		final := spSample
		switch {
		case k > 1:
			final = spTopK
		case !tr.cacheOn:
			final = spDraw
		}
		for _, st := range []stage{{spCDF, cdf}, {spSample, sample}, {spDraw, draw}, {spTopK, topk}} {
			if st.name == final || (st.name == spCDF && miss && tr.cacheOn) {
				path = append(path, st)
			} else {
				probes = append(probes, st)
			}
		}
	}
	if miss && tr.cacheOn {
		for _, st := range path {
			if st.name == spSparse || st.name == spCDF {
				callDur += st.dur
			}
		}
	}
	root := tr.add(worker, id, spRequest, -1, request)
	tr.add(worker, id, spRNG, root, rngDur)
	call := tr.add(worker, id, spCall, root, callDur)
	for _, st := range path {
		tr.add(worker, id, st.name, call, st.dur)
	}
	for _, st := range probes {
		tr.add(worker, id, st.name, -1, st.dur)
	}
}

// layerStats summarizes the spans: mean duration per layer, and for the
// request and call spans the share their children leave unaccounted.
type layerStats struct {
	n        [numSpans]int
	mean     [numSpans]float64 // ns
	selfMean [numSpans]float64 // ns, over spans with a parent role
	unacc    [numSpans]float64 // Σ self / Σ duration, in %
}

func summarize(perWorker [][]span) layerStats {
	var ls layerStats
	var sum, selfSum, durSum [numSpans]float64
	var parents [numSpans]int
	for _, spans := range perWorker {
		child := make([]int64, len(spans))
		for _, sp := range spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.dur
			}
		}
		for i, sp := range spans {
			ls.n[sp.name]++
			sum[sp.name] += float64(sp.dur)
			if sp.name == spRequest || sp.name == spCall {
				parents[sp.name]++
				selfSum[sp.name] += float64(sp.dur - child[i])
				durSum[sp.name] += float64(sp.dur)
			}
		}
	}
	for n := range numSpans {
		if ls.n[n] > 0 {
			ls.mean[n] = sum[n] / float64(ls.n[n])
		}
		if parents[n] > 0 {
			ls.selfMean[n] = selfSum[n] / float64(parents[n])
			ls.unacc[n] = 100 * selfSum[n] / durSum[n]
		}
	}
	return ls
}

// runTraced is the per-layer run: an untraced window at the workload's
// fixed rate (the counters and the baseline for the tracing overhead),
// then the same schedule traced. Static workloads take no writes, so their
// write-path layers and rebuild counters come from a short write-only
// probe against a live server on the same graph.
func runTraced(w *workload, in *inputs, s *server, dir string, workers int, total time.Duration, setups []setupTimes) (map[string]metric, verdict, error) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	do := s.execFunc(workers)
	var got batches
	got.add(warm(w, s, workers, do))

	untracedDur, tracedDur, probeDur := total*45/100, total*55/100, time.Duration(0)
	if !w.live {
		untracedDur, tracedDur, probeDur = total*40/100, total*45/100, total*15/100
	}
	before := s.counters()
	base := openLoop(schedule(w, in, "fixed", int(w.rate*untracedDur.Seconds())), w.rate, workers, untracedDur, do)
	after := s.counters()
	d := delta(before, after)
	baseStep := judge(base, sloP99, workers)
	printStep("untraced", baseStep)
	d.print(base.sent)

	tr, err := newTracer(s, dir, workers)
	if err != nil {
		return nil, verdict{}, err
	}
	defer tr.close()
	traced := openLoop(schedule(w, in, "fixed", int(w.rate*tracedDur.Seconds())), w.rate, workers, tracedDur, tr.exec)
	tracedStep := judge(traced, sloP99, workers)
	printStep("traced", tracedStep)
	got.add(base.results)
	got.add(traced.results)

	walSpans, patches, visible, live := tr.spans, tr.patches, visibleMs(s), d
	if !w.live {
		var err error
		if walSpans, patches, visible, live, err = writeProbe(in, dir, probeDur); err != nil {
			return nil, verdict{}, err
		}
	}
	ls := summarize(tr.spans)
	wls := summarize(walSpans)

	const rngCalls = 1000
	var r0, r1 runtime.MemStats
	runtime.ReadMemStats(&r0)
	for range rngCalls {
		sinkRNG = s.rec.RequestRNG()
	}
	runtime.ReadMemStats(&r1)

	v, err := check(s, got.flat(), s.rec.Sensitivity(), false)
	if err != nil {
		return nil, v, err
	}
	printLayers(ls, wls)

	us := func(n spanName) float64 { return ls.mean[n] / 1e3 }
	late := slices.Clone(base.late)
	slices.Sort(late)
	lateP50, _ := percentile(late, 50)
	lateP99, _ := percentile(late, 99)
	overhead := 100 * float64(tracedStep.p50-baseStep.p50) / float64(baseStep.p50)
	m := map[string]metric{
		"recserver.self_us":               {ls.selfMean[spRequest] / 1e3, "us"},
		"socialrec.request_us":            {us(spCall), "us"},
		"socialrec.cache_hit_ratio":       {d.hitRatio(), "ratio"},
		"socialrec.cache_mb":              {float64(after.cache.Bytes) / 1e6, "MB"},
		"socialrec.cache_invalidated":     {float64(d.invalidated), "count"},
		"socialrec.rebuilds":              {float64(live.rebuilds), "count"},
		"socialrec.incremental_ratio":     {live.incrementalRatio(), "ratio"},
		"socialrec.visible_ms":            {median(visible), "ms"},
		"utility.sparse_us":               {us(spSparse), "us"},
		"utility.nnz_mean":                {meanInt(slices.Concat(tr.nnz...)), "count"},
		"mechanism.cdf_us":                {us(spCDF), "us"},
		"mechanism.draw_us":               {us(spDraw), "us"},
		"mechanism.sample_us":             {us(spSample), "us"},
		"mechanism.topk_us":               {us(spTopK), "us"},
		"budget.reserve_us":               {us(spReserve), "us"},
		"distribution.request_rng_ns":     {ls.mean[spRNG], "ns"},
		"distribution.allocs_per_rng":     {float64(r1.Mallocs-r0.Mallocs) / rngCalls, "count"},
		"graph.patch_ms":                  {medianNs(patches) / 1e6, "ms"},
		"graph.load_ms":                   {1e3 * median(seconds(setups, func(t setupTimes) time.Duration { return t.load })), "ms"},
		"wal.append_us":                   {wls.mean[spWAL] / 1e3, "us"},
		"stream.pool_new_ratio":           {d.poolNewRatio(), "ratio"},
		"runtime.allocs_per_op":           {d.allocsPerOp(base.sent), "count"},
		"runtime.gc_pause_ms":             {float64(after.mem.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
		"load.gen_late_p50_ms":            {ms(lateP50), "ms"},
		"load.gen_late_p99_ms":            {ms(lateP99), "ms"},
		"load.trace_overhead_pct":         {overhead, "%"},
		"trace.recserver_unaccounted_pct": {ls.unacc[spRequest], "%"},
		"trace.socialrec_unaccounted_pct": {ls.unacc[spCall], "%"},
	}
	return m, v, nil
}

var sinkRNG *rand.Rand

// writeProbe times the write-path layers for a static workload: writes at
// live-churn's write rate against a live server (WAL, fsync=interval)
// started from the same graph. It also returns the probe server's counters
// over the writes, for its rebuilds.
func writeProbe(in *inputs, dir string, dur time.Duration) ([][]span, []int64, []float64, counterDelta, error) {
	live, err := findWorkload("live-churn")
	if err != nil {
		return nil, nil, nil, counterDelta{}, err
	}
	rate := live.rate * live.writeShare
	pw := &workload{name: "write-probe", live: true, writeShare: 1, rate: rate}
	pin := *in
	pin.snapPath = filepath.Join(dir, "probe.srsnap")
	if err := socialrec.WriteSnapshotFile(pin.snapPath, in.g); err != nil {
		return nil, nil, nil, counterDelta{}, err
	}
	n := int(rate * dur.Seconds())
	pin.edges = absentEdges(in.csr, distribution.SplitN(in.seed, "probe-edges", 0), n+1)
	ps, _, err := setup(pw, &pin, dir, setupReps)
	if err != nil {
		return nil, nil, nil, counterDelta{}, err
	}
	defer ps.close()
	tr, err := newTracer(ps, dir, 1)
	if err != nil {
		return nil, nil, nil, counterDelta{}, err
	}
	defer tr.close()
	before := ps.counters()
	run := openLoop(schedule(pw, &pin, "probe", n), rate, 1, dur, tr.exec)
	d := delta(before, ps.counters())
	st := judge(run, sloP99, 1)
	if st.failed > 0 {
		return nil, nil, nil, counterDelta{}, fmt.Errorf("write probe: %d of %d writes failed", st.failed, st.sent)
	}
	fmt.Printf("# write probe: %d writes at %.0f/s against a live copy of the graph; rebuilds=%d incremental_ratio=%.3f\n",
		st.sent, rate, d.rebuilds, d.incrementalRatio())
	return tr.spans, tr.patches, visibleMs(ps), d, nil
}

// visibleMs is, for each acknowledged write, the time from its
// acknowledgement until a worker first saw a snapshot version covering it.
// Versions are seen at request starts, so the resolution is one
// inter-arrival gap.
func visibleMs(s *server) []float64 {
	s.verMu.Lock()
	vers := make([]version, 0, len(s.versions))
	for _, v := range s.versions {
		vers = append(vers, v)
	}
	s.verMu.Unlock()
	slices.SortFunc(vers, func(a, b version) int { return a.seen.Compare(b.seen) })
	var out []float64
	j := 0
	for i, a := range s.acked {
		for j < len(vers) && vers[j].covered < uint64(i+1) {
			j++
		}
		if j == len(vers) {
			break
		}
		out = append(out, max(0, float64(vers[j].seen.Sub(a.at).Nanoseconds())/1e6))
	}
	return out
}

func medianNs(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

func printLayers(ls, wls layerStats) {
	fmt.Printf("# spans: layer n mean_us self_us unaccounted_%%\n")
	for n := range numSpans {
		src := ls
		if n == spWAL || n == spWrite {
			src = wls
		}
		fmt.Printf("#   %-26s %7d %10.3f %10.3f %8.2f\n", spanNames[n], src.n[n], src.mean[n]/1e3, src.selfMean[n]/1e3, src.unacc[n])
	}
}
