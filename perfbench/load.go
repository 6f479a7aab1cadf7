package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// result is one executed operation. Results are kept in memory and checked
// for correctness after the measured windows.
type result struct {
	op
	status uint16
	nn     uint8
	nodes  [maxK]int32
	// verBefore and verAfter are the serving snapshot's version just
	// before and after the request; the checker judges a read against the
	// graph of that version.
	verBefore, verAfter uint32
	// lat is the latency in ns: from the due time in an open loop, from
	// the send time in a closed loop.
	lat int64
}

// okStatus reports whether the program answered the operation: a
// recommendation (200), a written edge (201), or "no candidate" (422, which
// the checker must confirm).
func okStatus(s uint16) bool { return s == 200 || s == 201 || s == 422 }

// execFunc runs one operation on a worker and fills r's outcome fields.
type execFunc func(worker int, o op, r *result)

// closedLoop runs workers clients back to back for dur, or until next
// reports no more operations; each client takes its next operation only
// after the previous one completed.
func closedLoop(workers int, dur time.Duration, next func(worker int) (op, bool), do execFunc) (results [][]result, elapsed time.Duration) {
	results = make([][]result, workers)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]result, 0, 1<<14)
			for now := time.Now(); now.Before(end); {
				o, more := next(w)
				if !more {
					break
				}
				r := result{op: o}
				do(w, o, &r)
				done := time.Now()
				r.lat = done.Sub(now).Nanoseconds()
				out = append(out, r)
				now = done
			}
			results[w] = out
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}

// openRun is the outcome of one open-loop window.
type openRun struct {
	rate    float64
	offered int
	sent    int
	elapsed time.Duration
	results [][]result
	// late holds the generator's lateness in ns: how long after its due
	// time an operation was sent although its worker was idle and waiting
	// for it. Operations a busy worker sent late are backlog, not
	// lateness, and are counted by lagMid and lagEnd instead.
	late []int64
	// lagMid and lagEnd are the operations due but not yet sent at the
	// middle and at the end of the window.
	lagMid, lagEnd int
}

// openLoop offers ops at a fixed rate for dur: operation i is due at
// start + i/rate and runs on whichever worker takes it next, as a server
// hands each arriving request to a free thread; a stalled worker then
// delays only the operation it holds. Each latency is timed from the due
// time, so a stall also charges every operation queued behind it.
// Operations still unsent when the window closes are dropped and show as
// lagEnd.
func openLoop(ops []op, rate float64, workers int, dur time.Duration, do execFunc) openRun {
	run := openRun{rate: rate, offered: len(ops), results: make([][]result, workers)}
	gap := 1e9 / rate
	lates := make([][]int64, workers)
	var next atomic.Int64
	var midSeen atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	mid := start.Add(dur / 2)
	end := start.Add(dur)
	// dueBy counts the operations due at or before t.
	dueBy := func(t time.Time) int {
		return min(int(math.Floor(float64(t.Sub(start).Nanoseconds())/gap))+1, len(ops))
	}
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]result, 0, len(ops)/workers+1)
			var late []int64
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					break
				}
				due := start.Add(time.Duration(float64(i) * gap))
				now := time.Now()
				if now.Before(due) {
					now = waitUntil(due)
					late = append(late, now.Sub(due).Nanoseconds())
				}
				if !now.Before(end) {
					break
				}
				if !now.Before(mid) && midSeen.CompareAndSwap(false, true) {
					// Operations before i have all been taken.
					run.lagMid = dueBy(now) - i
				}
				r := result{op: ops[i]}
				do(w, r.op, &r)
				r.lat = time.Since(due).Nanoseconds()
				out = append(out, r)
			}
			run.results[w] = out
			lates[w] = late
		}()
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	for w := range workers {
		run.sent += len(run.results[w])
		run.late = append(run.late, lates[w]...)
	}
	run.lagEnd = dueBy(end) - run.sent
	return run
}

// waitUntil returns at the first clock reading at or after due. It yields
// instead of sleeping for short waits: the timer on small shared machines
// wakes up to milliseconds late, which would be charged to the program.
// It yields both the P, so the program's goroutines run, and the thread,
// so other threads do.
func waitUntil(due time.Time) time.Time {
	for {
		now := time.Now()
		d := due.Sub(now)
		if d <= 0 {
			return now
		}
		if d > 30*time.Millisecond {
			time.Sleep(d - 25*time.Millisecond)
			continue
		}
		runtime.Gosched()
		osYield()
	}
}

// latencies returns the sorted latencies of the operations of the given
// kind; an operation the program did not answer counts as infinitely slow,
// so it misses any latency limit.
func latencies(results [][]result, kind uint8) []int64 {
	var out []int64
	for _, rs := range results {
		for i := range rs {
			if rs[i].kind != kind {
				continue
			}
			if okStatus(rs[i].status) {
				out = append(out, rs[i].lat)
			} else {
				out = append(out, math.MaxInt64)
			}
		}
	}
	slices.Sort(out)
	return out
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples; the epsilon keeps 99.9% of 10000 at 9990, not 9991.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// beyond is the number of samples above the p-th percentile of n samples
// under the nearest-rank rule.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile is the highest of the standard percentiles that has at
// least ten samples beyond it; 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.99, 99.9, 99, 90, 50} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of sorted samples; ok is
// false unless at least ten samples lie beyond it.
func percentile(sorted []int64, p float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 || beyond(n, p) < 10 {
		return 0, false
	}
	return sorted[max(rank(n, p)-1, 0)], true
}

// step is the verdict on one SLO ladder rate.
type step struct {
	rate     float64
	achieved float64 // answered operations per second of window
	offered  int
	sent     int
	failed   int
	reads    int
	p50, p99 int64 // read latency, ns
	p99ok    bool
	lateP50  int64
	lateP99  int64
	lagMid   int
	lagEnd   int
	pass     bool
}

// backlogGrew reports whether the unsent backlog grew over the second half
// of a window by more than a couple of operations per worker or 0.5% of
// the offered load, whichever is larger.
func backlogGrew(lagMid, lagEnd, offered, workers int) bool {
	return lagEnd-lagMid > max(2*workers, offered/200)
}

// judge evaluates an open-loop window against the read p99 limit and the
// backlog rule.
func judge(run openRun, limit time.Duration, workers int) step {
	s := step{rate: run.rate, offered: run.offered, sent: run.sent, lagMid: run.lagMid, lagEnd: run.lagEnd}
	answered := 0
	for _, rs := range run.results {
		for i := range rs {
			if okStatus(rs[i].status) {
				answered++
			} else {
				s.failed++
			}
		}
	}
	s.achieved = float64(answered) / run.elapsed.Seconds()
	reads := latencies(run.results, opRead)
	s.reads = len(reads)
	s.p50, _ = percentile(reads, 50)
	s.p99, s.p99ok = percentile(reads, 99)
	late := slices.Clone(run.late)
	slices.Sort(late)
	s.lateP50, _ = percentile(late, 50)
	s.lateP99, _ = percentile(late, 99)
	s.pass = s.p99ok && s.p99 < limit.Nanoseconds() && !backlogGrew(s.lagMid, s.lagEnd, s.offered, workers)
	return s
}

// sloRate is the achieved rate of the highest passing ladder step, and 0
// when no step passes.
func sloRate(steps []step) float64 {
	best := 0.0
	for _, s := range steps {
		if s.pass {
			best = s.achieved
		}
	}
	return best
}
