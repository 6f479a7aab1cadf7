// Command perfbench is the serving benchmark. It generates one workload's
// inputs from a seed, starts the real recserver handler in process with
// recserve's configuration for that workload, drives it from at most
// GOMAXPROCS client goroutines calling ServeHTTP directly (no sockets),
// checks every answer, and prints the end-to-end metrics (--trace 0) or
// the per-layer metrics of a traced run (--trace 1). The last line of
// standard output is one JSON object; the lines before it are the report.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 30 --trace 0
//
// It exits 1 when the correctness gate fails, after printing the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// setupReps is how many times a run starts the server; setup_s is the
// median, and the last instance serves the run.
const setupReps = 9

func main() {
	name := flag.String("workload", "", "workload: hot-zipf, cold-uniform or live-churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	}
	dir := filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer removeAllQuiet(dir)
	workers := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	printMeta(w, seed, seconds, traced, workers)
	machineBefore := machine()

	in, err := makeInputs(w, seed, dir)
	if err != nil {
		return err
	}
	var s *server
	var setups []setupTimes
	var baseHeap uint64
	for rep := range setupReps {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
			s = nil
		}
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		baseHeap = mem.HeapAlloc
		var t setupTimes
		if s, t, err = setup(w, in, dir, rep); err != nil {
			return err
		}
		setups = append(setups, t)
	}
	defer s.close()

	var out output
	var v verdict
	if traced {
		out.Metrics, v, err = runTraced(w, in, s, dir, workers, time.Duration(seconds)*time.Second, setups)
	} else {
		out.Metrics, v, err = runMeasured(w, s, workers, time.Duration(seconds)*time.Second, setups, baseHeap)
	}
	if err != nil {
		return err
	}
	printVerdict(v)
	out.Correct, out.Attempted, out.Failed = v.ok(), v.attempted, v.failed
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("# machine before the run: %s; after: %s\n", machineBefore, machine())
	fmt.Println(string(line))
	if !out.Correct {
		s.close()
		removeAllQuiet(dir)
		os.Exit(1)
	}
	return nil
}

// rounds is how many times a run cycles through its measurements. A round
// alternates capacityPerRound closed-loop capacity windows with as many
// fixed-rate windows, each followed by a heap sample, and runs one SLO
// ladder step halfway. Every metric is the median of its windows, so its
// samples spread over the whole run and a burst of noise from other
// tenants of a small shared machine moves a few windows, not the result.
// Most of a run is fixed-rate windows: read_p99_ms rests on the fewest
// samples of any metric.
const (
	rounds           = 5
	capacityPerRound = 6
	fixedPerRound    = capacityPerRound
)

// runMeasured is the untraced run: rounds of capacity in a closed loop, one
// step of the SLO ladder, and read (and write) latency in an open loop at
// the workload's fixed rate; then the correctness gate.
func runMeasured(w *workload, s *server, workers int, total time.Duration, setups []setupTimes, baseHeap uint64) (map[string]metric, verdict, error) {
	if len(w.ladder) != rounds {
		return nil, verdict{}, fmt.Errorf("workload %s has %d ladder steps, want one per round (%d)", w.name, len(w.ladder), rounds)
	}
	var got batches
	do := s.execFunc(workers)
	got.add(warm(w, s, workers, do))

	capDur := total * 20 / 100 / (rounds * capacityPerRound)
	stepDur := total * 10 / 100 / rounds
	fixedDur := (total - capDur*rounds*capacityPerRound - stepDur*rounds) / (rounds * fixedPerRound)
	fmt.Printf("# %d rounds of: %d capacity windows of %v, closed loop with %d clients; %d fixed-rate windows of %v at %.0f ops/s; one SLO ladder step of %v (read p99 limit %v, backlog may grow by at most max(2 per worker, 0.5%% of offered))\n",
		rounds, capacityPerRound, capDur, workers, fixedPerRound, fixedDur, w.rate, stepDur, sloP99)
	var rates, p99s, heaps []float64
	var steps []step
	var fixedResults [][]result
	var counts counterDelta
	sent := 0
	capacity := func(label string) {
		res, elapsed := closedLoop(workers, capDur, s.streams(workers, label), do)
		rates = append(rates, float64(answered(res))/elapsed.Seconds())
		got.add(res)
	}
	fixed := func(label string) error {
		before := s.counters()
		run := openLoop(schedule(w, s.in, label, int(w.rate*fixedDur.Seconds())), w.rate, workers, fixedDur, do)
		counts.add(delta(before, s.counters()))
		st := judge(run, sloP99, workers)
		printStep("fixed", st)
		if !st.p99ok {
			return fmt.Errorf("fixed-rate window has %d reads, too few for a p99", st.reads)
		}
		p99s = append(p99s, ms(st.p99))
		fixedResults = append(fixedResults, run.results...)
		sent += run.sent
		got.add(run.results)

		// heap_mb is what the program holds at the end of a fixed-rate
		// window: the live heap after a collection, less what the
		// benchmark held before the server started and the results it has
		// recorded since. A live server's cache refills between flushes,
		// so one sample depends on where in the rebuild cycle it lands;
		// the median over the windows does not.
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		heaps = append(heaps, (float64(mem.HeapAlloc)-float64(baseHeap)-float64(got.bytes()))/1e6)
		return nil
	}
	runtime.GC()
	for i := range rounds {
		r := strconv.Itoa(i)
		for j := range capacityPerRound {
			if j == capacityPerRound/2 {
				rate := w.ladder[i]
				run := openLoop(schedule(w, s.in, "ladder-"+r, int(rate*stepDur.Seconds())), rate, workers, stepDur, do)
				st := judge(run, sloP99, workers)
				steps = append(steps, st)
				printStep("ladder", st)
				got.add(run.results)
			}
			capacity("capacity-" + r + "-" + strconv.Itoa(j))
			if err := fixed("fixed-" + r + "-" + strconv.Itoa(j)); err != nil {
				return nil, verdict{}, err
			}
		}
	}
	capacityQPS := median(rates)
	fmt.Printf("# capacity per window %s ops/s, median %.1f\n", fmtFloats(rates), capacityQPS)
	slo := sloRate(steps)
	reads := latencies(fixedResults, opRead)
	p50, _ := percentile(reads, 50)
	p99all, _ := percentile(reads, 99)
	p99 := median(p99s)
	fmt.Printf("# read latency at %.0f ops/s: n=%d p50=%.4fms p99 per window %s ms, median %.4fms; whole sample p99=%.4fms tail p%g=%.4fms\n",
		w.rate, len(reads), ms(p50), fmtFloats(p99s), p99, ms(p99all), tailPercentile(len(reads)), ms(tail(reads)))
	if w.writeShare > 0 {
		writes := latencies(fixedResults, opWrite)
		wp50, _ := percentile(writes, 50)
		wp99, wok := percentile(writes, 99)
		fmt.Printf("# write latency at %.0f ops/s: n=%d write_p50_ms=%.4f write_p99_ms=%.4f (p99 supported: %v) tail p%g=%.4fms\n",
			w.rate, len(writes), ms(wp50), ms(wp99), wok, tailPercentile(len(writes)), ms(tail(writes)))
	}
	counts.print(sent)
	heap := median(heaps)
	fmt.Printf("# program heap per fixed-rate window %s MB, median %.3f\n", fmtFloats(heaps), heap)

	v, err := check(s, got.flat(), s.rec.Sensitivity(), w.chiSquared)
	if err != nil {
		return nil, v, err
	}
	m := map[string]metric{
		"setup_s":       {median(seconds(setups, func(t setupTimes) time.Duration { return t.total })), "s"},
		"capacity_qps":  {capacityQPS, "1/s"},
		"slo_qps":       {slo, "1/s"},
		"read_p50_ms":   {ms(p50), "ms"},
		"read_p99_ms":   {p99, "ms"},
		"accuracy_mean": {v.accuracy(), "ratio"},
		"heap_mb":       {heap, "MB"},
	}
	return m, v, nil
}

// batches holds every window's results as recorded, per window and
// worker, so the memory the benchmark itself holds is known exactly.
type batches [][]result

func (b *batches) add(rs [][]result) { *b = append(*b, rs...) }

func (b batches) bytes() int64 {
	var n int64
	for _, rs := range b {
		n += int64(cap(rs)) * int64(unsafe.Sizeof(result{}))
	}
	return n
}

func (b batches) flat() []result {
	var out []result
	for _, rs := range b {
		out = append(out, rs...)
	}
	return out
}

func answered(res [][]result) int {
	n := 0
	for _, rs := range res {
		for i := range rs {
			if okStatus(rs[i].status) {
				n++
			}
		}
	}
	return n
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// warm runs the workload's warm-up operations in a closed loop; they are
// checked for correctness but not timed.
func warm(w *workload, s *server, workers int, do execFunc) [][]result {
	var mu sync.Mutex
	left := w.warmOps
	streams := s.streams(workers, "warm")
	next := func(worker int) (op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if left == 0 {
			return op{}, false
		}
		left--
		return streams(worker)
	}
	res, elapsed := closedLoop(workers, time.Hour, next, do)
	fmt.Printf("# warm-up: %d operations in %.2fs\n", answered(res), elapsed.Seconds())
	return res
}

// streams returns per-worker closed-loop operation sources for one phase.
// Closed-loop clients send reads; a live workload's writes stay at the
// fixed rate they have in its open loop (writeShare of rate), sent by
// worker 0 whenever one is due, so the graph and the rebuild cadence evolve
// at the same pace however fast the program answers.
func (s *server) streams(workers int, label string) func(worker int) (op, bool) {
	src := make([]*opStream, workers)
	for i := range src {
		src[i] = newOpStream(s.w, s.in, label, i)
	}
	start := time.Now()
	writes := 0
	var gap time.Duration
	if s.w.writeShare > 0 {
		gap = time.Duration(float64(time.Second) / (s.w.rate * s.w.writeShare))
	}
	return func(worker int) (op, bool) {
		if worker == 0 && gap > 0 && time.Since(start) >= time.Duration(writes)*gap {
			writes++
			return op{kind: opWrite}, true
		}
		return src[worker].next(0), true
	}
}

// execFunc binds the server to per-worker client state.
func (s *server) execFunc(workers int) execFunc {
	clients := make([]*client, workers)
	for i := range clients {
		clients[i] = &client{}
	}
	return func(worker int, o op, r *result) { s.exec(clients[worker], o, r) }
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// tail is the highest percentile the sample supports.
func tail(sorted []int64) int64 {
	v, _ := percentile(sorted, tailPercentile(len(sorted)))
	return v
}

// seconds maps xs to durations in seconds.
func seconds[T any](xs []T, f func(T) time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x).Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func printMeta(w *workload, seed int64, seconds int, traced bool, workers int) {
	meta := map[string]any{
		"workload":   w.name,
		"why":        w.why,
		"seed":       seed,
		"seconds":    seconds,
		"mode":       map[bool]string{false: "untraced", true: "traced"}[traced],
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"clients":    workers,
		"graph":      fmt.Sprintf("GenerateSocialGraph(%d, %d, %d)", graphNodes, graphEdges, graphSeed),
	}
	b, _ := json.Marshal(meta)
	fmt.Printf("# meta %s\n", b)
}

// machine times two fixed loops that do not depend on the program, each
// the median of five tries: arithmetic with random access to 1 MiB, in ms,
// and a round trip between two goroutines locked to their own threads, in
// us, which wakes a thread the way a handed-off request does. They are
// reported so that a reader can tell a slower machine from a slower
// program; no metric is adjusted by them.
func machine() string {
	buf := make([]uint32, 1<<18)
	var loop, handoff []float64
	for range 5 {
		start := time.Now()
		x := uint32(1)
		for range 4 {
			for range buf {
				x = x*1664525 + 1013904223
				buf[(x>>14)&(1<<18-1)] += x
			}
		}
		loop = append(loop, float64(time.Since(start).Nanoseconds())/1e6)
		sinkU32 = x
		handoff = append(handoff, roundTripUs(2000))
	}
	return fmt.Sprintf("reference loop %.3fms, thread handoff %.2fus", median(loop), median(handoff))
}

var sinkU32 uint32

// roundTripUs is the mean time of n round trips between two goroutines on
// different threads.
func roundTripUs(n int) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ping, pong := make(chan int), make(chan int)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer close(pong)
		for v := range ping {
			pong <- v
		}
	}()
	start := time.Now()
	for i := range n {
		ping <- i
		<-pong
	}
	us := float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	close(ping)
	for range pong {
	}
	return us
}

// commit is the VCS revision the binary was built from, when the build saw
// one; benchmark checkouts without version control report "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printStep(phase string, s step) {
	fmt.Printf("# %s rate=%.0f offered=%d sent=%d failed=%d achieved=%.1f/s reads=%d p50=%.4fms p99=%.4fms (supported %v) gen_late p50=%.4fms p99=%.4fms backlog mid=%d end=%d pass=%v\n",
		phase, s.rate, s.offered, s.sent, s.failed, s.achieved, s.reads, ms(s.p50), ms(s.p99), s.p99ok,
		ms(s.lateP50), ms(s.lateP99), s.lagMid, s.lagEnd, s.pass)
}

func printVerdict(v verdict) {
	fmt.Printf("# correctness: attempted=%d failed=%d (transport=%d 5xx=%d 429=%d other_status=%d wrong_answer=%d) fail_frac=%.6f weak_checked=%d accuracy_mean=%.6f over %d top-1 reads\n",
		v.attempted, v.failed, v.transport, v.server5xx, v.refused429, v.otherStatus, v.wrongAnswer,
		float64(v.failed)/float64(max(v.attempted, 1)), v.weak, v.accuracy(), v.accN)
	if v.firstWrong != "" {
		fmt.Printf("# first wrong answer: %s\n", v.firstWrong)
	}
	if c := v.chi; c != nil {
		fmt.Printf("# chi-squared: target %d, %d top-1 draws, %d bins, stat=%.2f, p=%.3g (gate p >= %g)\n",
			c.target, c.draws, c.bins, c.stat, c.p, chiMinP)
	}
}
