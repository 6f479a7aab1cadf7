package main

import (
	"slices"
	"sync"
	"testing"
	"time"

	"socialrec"
	"socialrec/internal/distribution"
	"socialrec/internal/utility"
)

func testInputs(t *testing.T, seed int64) *inputs {
	t.Helper()
	z, err := distribution.NewZipf(graphNodes, zipfExponent)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{seed: seed, zipf: z, order: make([]int32, graphNodes)}
	for i, v := range distribution.NewRNG(graphSeed).Perm(graphNodes) {
		in.order[i] = int32(v)
	}
	return in
}

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := schedule(w, testInputs(t, 7), "fixed-0", 20000)
		b := schedule(w, testInputs(t, 7), "fixed-0", 20000)
		c := schedule(w, testInputs(t, 8), "fixed-0", 20000)
		if !slices.Equal(a, b) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same schedule", w.name)
		}
		var writes, topk, reads int
		for _, o := range a {
			switch {
			case o.kind == opWrite:
				writes++
			case o.k == topK:
				topk++
				reads++
			default:
				reads++
			}
		}
		if got, want := float64(writes)/float64(len(a)), w.writeShare; got < want*0.8 || got > want*1.2+0.001 {
			t.Errorf("%s: write share %.4f, want about %.2f", w.name, got, want)
		}
		if got, want := float64(topk)/float64(reads), w.topKShare; got < want*0.8 || got > want*1.2+0.001 {
			t.Errorf("%s: top-k share %.4f, want about %.2f", w.name, got, want)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {10, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if v, ok := percentile(sorted, 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %d (ok %v), want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(sorted[:999], 99); ok {
		t.Error("p99 of 999 samples reported although only 9 lie beyond it")
	}
	if v, ok := percentile(sorted, 50); !ok || v != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", v)
	}
}

func TestBacklogGrew(t *testing.T) {
	for _, c := range []struct {
		mid, end, offered int
		want              bool
	}{
		{0, 0, 1000, false},
		{2, 6, 1000, false},   // within 2 per worker
		{2, 8, 1000, true},    // more than 0.5% of offered
		{0, 40, 10000, false}, // within 0.5% of offered
		{0, 60, 10000, true},
		{50, 10, 1000, false}, // shrinking
	} {
		if got := backlogGrew(c.mid, c.end, c.offered, 2); got != c.want {
			t.Errorf("backlogGrew(%d, %d, %d) = %v, want %v", c.mid, c.end, c.offered, got, c.want)
		}
	}
}

// fakeServer serves one operation at a time for a fixed service time, so
// its capacity is 1/service whatever the number of clients.
type fakeServer struct {
	mu      sync.Mutex
	service time.Duration
}

func (f *fakeServer) exec(worker int, o op, r *result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for end := time.Now().Add(f.service); time.Now().Before(end); {
	}
	r.status = 200
}

func TestLadderAgainstFakeHandler(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := &fakeServer{service: 250 * time.Microsecond} // capacity 4000/s
	dur := 1200 * time.Millisecond                    // 1000/s gives the 1000 reads a p99 needs
	var steps []step
	for _, rate := range []float64{500, 1000, 16000} {
		ops := make([]op, int(rate*dur.Seconds()))
		run := openLoop(ops, rate, 2, dur, f.exec)
		steps = append(steps, judge(run, 50*time.Millisecond, 2))
	}
	low, high := steps[1], steps[2]
	if !low.pass {
		t.Errorf("1000/s against a 4000/s server failed: %+v", low)
	}
	if high.pass || !backlogGrew(high.lagMid, high.lagEnd, high.offered, 2) {
		t.Errorf("16000/s against a 4000/s server passed or kept its backlog: %+v", high)
	}
	if high.sent >= high.offered {
		t.Errorf("an overloaded window sent all %d operations", high.offered)
	}
	slo := sloRate(steps)
	if slo < 900 || slo > 1100 {
		t.Errorf("slo rate %.1f, want the 1000/s step's achieved rate", slo)
	}
}

func TestClosedLoopStopsWhenOpsRunOut(t *testing.T) {
	f := &fakeServer{}
	var mu sync.Mutex
	left := 100
	next := func(int) (op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if left == 0 {
			return op{}, false
		}
		left--
		return op{kind: opRead, k: 1}, true
	}
	res, _ := closedLoop(2, time.Minute, next, f.exec)
	if n := answered(res); n != 100 {
		t.Errorf("answered %d operations, want 100", n)
	}
}

func TestParseNodes(t *testing.T) {
	var dst [maxK]int32
	for _, c := range []struct {
		body string
		want []int32
	}{
		{`{"target":3,"nodes":[17],"epsilon_spent":1}` + "\n", []int32{17}},
		{`{"target":3,"nodes":[5,0,12,7,9],"epsilon_spent":1}`, []int32{5, 0, 12, 7, 9}},
		{`{"target":3,"nodes":[],"epsilon_spent":1}`, nil},
		{`{"target":3,"nodes":[1,2,3,4,5,6]}`, nil},
		{`{"error":"internal error"}`, nil},
	} {
		n := parseNodes([]byte(c.body), &dst)
		if got := dst[:n]; !slices.Equal(got, c.want) && !(len(got) == 0 && len(c.want) == 0) {
			t.Errorf("parseNodes(%s) = %v, want %v", c.body, got, c.want)
		}
	}
}

func TestCheckFlagsWrongAnswers(t *testing.T) {
	g, err := socialrec.GenerateSocialGraph(200, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := &inputs{csr: g.Snapshot()}
	s := &server{w: workloads[0], in: in, versions: map[uint32]version{0: {}}}
	// Find a target with candidates and one of its neighbours.
	target, neighbour := int32(-1), int32(-1)
	for v := range 200 {
		if _, val, _ := (utility.CommonNeighbors{}).Sparse(in.csr, v); len(val) > 0 {
			target, neighbour = int32(v), in.csr.Out(v)[0]
			break
		}
	}
	idx, _, _ := (utility.CommonNeighbors{}).Sparse(in.csr, int(target))
	good := result{op: op{kind: opRead, k: 1, target: target}, status: 200, nn: 1, nodes: [maxK]int32{idx[0]}}
	for _, c := range []struct {
		name  string
		r     result
		wrong bool
	}{
		{"valid", good, false},
		{"neighbour", result{op: good.op, status: 200, nn: 1, nodes: [maxK]int32{neighbour}}, true},
		{"self", result{op: good.op, status: 200, nn: 1, nodes: [maxK]int32{target}}, true},
		{"out of range", result{op: good.op, status: 200, nn: 1, nodes: [maxK]int32{500}}, true},
		{"422 with candidates", result{op: good.op, status: 422}, true},
		{"duplicate top-k", result{op: op{kind: opRead, k: 2, target: target}, status: 200, nn: 2, nodes: [maxK]int32{idx[0], idx[0]}}, true},
		{"short top-k", result{op: op{kind: opRead, k: 2, target: target}, status: 200, nn: 1, nodes: [maxK]int32{idx[0]}}, true},
		{"server error", result{op: good.op, status: 500}, true},
	} {
		v, err := check(s, []result{c.r}, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.failed > 0; got != c.wrong || v.ok() == c.wrong {
			t.Errorf("%s: failed=%d ok=%v, want wrong=%v", c.name, v.failed, v.ok(), c.wrong)
		}
	}
}

func TestChiSquaredSurvival(t *testing.T) {
	if p := chiSquaredSurvival(100, 100); p < 0.4 || p > 0.6 {
		t.Errorf("P[chi2(100) >= 100] = %g, want about 0.48", p)
	}
	if p := chiSquaredSurvival(300, 100); p > 1e-15 {
		t.Errorf("P[chi2(100) >= 300] = %g, want far below the gate", p)
	}
}
