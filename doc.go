// Package socialrec is a differentially private social recommendation
// library reproducing "Personalized Social Recommendations — Accurate or
// Private?" (Machanavajjhala, Korolova, Das Sarma; PVLDB 4(7), 2011).
//
// The library makes graph link-analysis recommendations (friend, page, or
// product suggestions driven purely by the link structure of a social graph)
// under edge differential privacy: the recommendation distribution changes
// by at most a factor e^ε when any single sensitive edge is added to or
// removed from the graph.
//
// # Quick start
//
//	g := socialrec.NewGraph(4)
//	g.AddEdge(0, 1)
//	g.AddEdge(1, 2)
//	g.AddEdge(1, 3)
//	g.AddEdge(2, 3)
//	rec, err := socialrec.NewRecommender(g,
//		socialrec.WithEpsilon(1.0),
//		socialrec.WithUtility(socialrec.CommonNeighbors()),
//	)
//	if err != nil { ... }
//	suggestion, err := rec.Recommend(0) // a private suggestion for node 0
//
// # What the theory says
//
// The paper proves that privacy and accuracy are fundamentally at odds for
// social recommendations: any ε-differentially private recommender loses
// almost all utility for low-degree targets. The Recommender surfaces this
// through AccuracyCeiling, the per-target Corollary 1 upper bound on the
// accuracy any ε-private algorithm can attain, and ExpectedAccuracy, the
// accuracy the configured mechanism actually attains. Comparing the two on
// your own graph reproduces the paper's headline finding: good private
// social recommendations are feasible only for a small subset of users or
// for lenient privacy parameters.
//
// # Serving at scale
//
// Every recommendation factors into a deterministic pre-processing stage —
// computing the target's utility vector, candidate list, and u_max over the
// immutable graph snapshot — followed by a randomized mechanism draw. Only
// the draw carries the privacy guarantee, and its noise is fresh on every
// call. The Recommender can therefore memoize the pre-processing stage in a
// sharded LRU cache (WithCache, EnableCache) without touching the ε-DP
// analysis: caching is pure pre-processing in the differential privacy
// sense, the mechanism's output distribution is bit-for-bit the same with
// and without it, and the cached raw utilities never leave the process.
// Repeated-target serving then costs O(log nnz) per request — a binary
// search over the cached sparse CDF — instead of a graph scan, and each
// entry holds only the nonzero support (see "Serving complexity" below).
//
// BatchRecommend and Precompute fan work for many targets across a
// runtime.NumCPU() worker pool, and RefreshSnapshot swaps in a new graph
// snapshot atomically — advancing the cache epoch so stale entries lazily
// expire — for deployments that re-ingest their graph periodically.
//
// What caching does NOT change: privacy budgeting. Each served
// recommendation still releases ε of information (the Accountant composes
// budgets additively regardless of cache hits), because the mechanism draw,
// not the utility computation, is what consumes the budget.
//
// # Request coalescing
//
// Caching amortizes repeated targets across time; coalescing
// (WithCoalescing, EnableCoalescing, recserve -coalesce-window) amortizes
// them across concurrent requests. The first request for an (epoch, target)
// pair becomes a group leader and waits out a short deadline window
// (DefaultCoalesceWindow, 1ms) while duplicate requests accumulate; the
// leader then runs the pre-noise stage once and every member of the group
// reuses it. This is a Nagle-style latency/throughput trade aimed at the
// Zipf-popular targets of real recommendation traffic: under a hot-target
// burst, hundreds of cache misses collapse into one computation instead of
// stampeding, at the cost of up to one window of added latency. A plain
// singleflight only merges requests overlapping an in-progress computation,
// which on a fast pre-noise stage is nearly never; the deadline window is
// what makes merging happen at serving QPS.
//
// Coalescing is DP-safe by the same argument as caching, applied across
// requests instead of across time. What the group shares is exactly the
// deterministic pre-processing stage — utility support, candidate count,
// tail table, sparse CDF — a pure function of the public snapshot and
// (ε, Δf). What it never shares is randomness: each member draws its own
// noise from its own RNG stream after the shared stage returns, so the
// joint output distribution over a group of k requests is the product of k
// independent mechanism draws — identical to k uncoalesced requests. With
// no concurrent duplicates every group is a singleton and the served bytes
// are bit-identical to the uncoalesced path under fixed seeds; both
// properties are pinned by tests (a chi-squared comparison of concurrent
// coalesced draws against the sequential distribution, and byte-equality of
// sequential coalesced serving).
//
// Budgeting is likewise untouched: ε is charged per request served, never
// per group, because each member releases its own mechanism draw. Ten
// coalesced requests for one target cost 10ε exactly as ten uncoalesced
// ones do. Precompute routes its warming through the same coalescer
// (without the deadline wait), so bulk warming and live serving of the same
// target share one computation instead of racing.
//
// # Pooled request path
//
// Every request finds its pre-noise form the same way: the target's sparse
// support (idx, val), the tail-rank table, the candidate count and u_max.
// A cache or coalescer hands out an owned copy it keeps across requests;
// without either, the request borrows the form over the utility kernel's
// pooled scratch (utility.FillSparse), draws through the same sparse
// mechanism entry points and tail resolution the cached path uses, and
// releases the scratch before returning. Ownership is strictly per
// request: the kernel fills the pooled Support, the request reads it, and
// Support.Release hands it back — nothing pooled is reachable after the
// request returns, and a cache fill copies the support out before
// releasing. Steady-state uncached serving therefore allocates nothing
// per request (an AllocsPerRun test and the CI escape-analysis guard pin
// this), and the per-pool get/put/new counters on /healthz make a leak
// (news tracking gets) observable in production. The exponential
// mechanism's level table (see "Serving complexity") is a 4 KB array on
// the drawing goroutine's stack, and the top-k peel's working copies of the
// support come from a pooled mechanism.peel scratch, so neither adds heap
// per request.
//
// Pooling is DP-safe because it is a pure refactor of the deterministic
// pre-noise stage: the same kernel computes the same floats in the same
// order, whether into pooled or freshly allocated memory, and the noise is
// still drawn per request after it. u_max, Δf, the candidate domain and
// the mechanism's output distribution are untouched, and for a fixed seed
// the served bytes are identical with and without a cache or coalescer (a
// golden digest test pins this).
//
// # Budget accounting
//
// The paper's guarantee is stated per user: Definition 1 bounds how much
// any one recommendation distribution can depend on any one sensitive
// edge, and sequential composition then adds the ε of every query
// answered. That composition is per principal — the cumulative spend on
// behalf of each individual target is what bounds how much the system has
// revealed about that user's world — so a deployment's real privacy
// posture is the per-target cumulative ε, not one global scalar. A single
// global budget gets both directions wrong at scale: one hot user's
// traffic exhausts everyone's budget, while the number nominally
// protecting "the deployment" says nothing about how much any individual
// target has leaked.
//
// The Accountant therefore enforces budgets at two scopes. The global cap
// (NewAccountant's totalEpsilon) preserves the original deployment-wide
// semantics; PerPrincipalBudget adds a cap on each principal's cumulative
// spend — the target node by default, or API keys/tenants via
// PrincipalKeyFunc and the RecommendAs variants. Exhaustion is per
// principal: one user at their cap is refused (ErrBudgetExhausted,
// carrying a *BudgetError naming the refused scope) while every other
// user keeps serving.
//
// Internally, admission is a striped per-principal manager with O(1)
// atomic counters, so concurrent requests for different principals never
// contend on a global lock. Charges are reservations: the budget is
// debited before the query runs (concurrent callers cannot jointly
// overspend) and a failed query refunds exactly its own reservation — by
// construction a refund can never cancel another request's charge. The
// optional audit ledger (disable with DisableLedger for
// millions-of-principals serving) records every admitted call;
// Spent() == Σ Ledger() is an invariant at every observable instant, and
// Calls() reads an O(1) counter rather than copying the ledger. The
// Accountant's batch methods charge a whole evaluation sweep in one
// reservation round with per-target partial refusal, so an exhausted
// principal cannot fail the rest of a batch.
//
// Refunds are DP-safe for the same reason errors are: a refused or failed
// call released nothing about protected edges (refusal depends only on
// public parameters and the caller's own past spend; per-target errors
// depend on the target's own edges, which the relaxed Definition 1 leaves
// unprotected), so crediting its ε back does not weaken the composition
// bound over what was actually released.
//
// # Serving complexity
//
// The paper's utilities are zero outside a target's 2-3-hop out-
// neighborhood, so on sparse graphs the utility vector has nnz ≈ a few
// hundred nonzeros out of n candidates. Serving exploits this end to end:
// utility kernels (utility.Function.Sparse) walk the adjacency spans and
// return only the nonzero support, and the mechanisms sample over (support
// + implicit uniform zero tail) in closed form. Per uncached request:
//
//	stage                        dense (pre-sparse)   sparse
//	common neighbors / Jaccard   O(n)                 O(Σ_{a∈out(r)} d_a)
//	weighted paths (len ≤ L)     O(L·n)               O(L-hop frontier)
//	rooted PageRank              O(iters·m)           O(iters·reached edges)
//	degree                       O(n)                 O(n) scan, O(nnz) alloc
//	candidate bookkeeping        O(n) list            O(1) count + O(d_r+nnz) table
//	Exponential draw             O(n) exps            O(nnz) reads + O(u_max) exps; O(log nnz) cached
//	Laplace / noisy-max draw     O(n) noise           O(nnz) + 1 closed-form tail max
//	Smoothing draw               O(n)                 O(nnz)
//	top-k release                O(n log k) / O(k·n)  O(nnz + k) / O(k·nnz) reads
//	expected accuracy (audit)    O(n)                 O(nnz)
//	cache entry memory           ~24n bytes           ~25·nnz + 4·d_r bytes
//
// The zero tail needs no materialization because all zero-utility
// candidates are exchangeable under every mechanism: the Definition 5
// weighting gives each of them weight e^0 = 1, so the Exponential draw
// splits its single uniform between the support CDF and the closed-form
// tail mass (n_cand-nnz)·e^{-(ε/Δf)·u_max}, and noisy-max mechanisms
// sample the tail's maximum noise in one inverse-CDF draw (the max of m
// Laplace variates via U^{1/m}, the max of m Gumbels via ln m + Gumbel). A
// winning tail rank maps back to a node ID by an O(log) order-statistic
// lookup over the target's exclusion table.
//
// The sparse Exponential and top-k rows count level-table reads, which
// integer utilities get. Every weight loop of the Definition 5 mechanism
// (the uncached draw, the cache fill's CDF, each round of the top-k peel,
// the closed-form probabilities) computes exp((ε/Δf)·(l-u_max)) once per
// utility level l and reads it from a level table per entry, when every
// utility is a non-negative integer and u_max lies below both 512 and
// nnz. CommonNeighbors qualifies on sparse graphs (on perfbench's
// GenerateSocialGraph(7115, 100762, 1) every target does: median u_max 6
// over 1813 nonzeros, largest u_max 240), and Degree does while its
// largest out-degree stays below 512. WeightedPaths, Jaccard and PageRank
// produce fractional utilities and run the plain loop with one exp per
// entry, as does any vector whose u_max is too large. The table changes
// no output: an integer utility x is exactly float64(l) at its level l, so
// the table entry is the very expression the per-entry loop evaluates, and
// every weight, prefix sum and pick is bit-identical. The peel builds its
// CDF once and then re-accumulates only the suffix from the slot each
// round removed; only taking an entry at u_max rescans the rest and
// rebuilds the CDF (and the table, if u_max fell).
//
// Why sparsification preserves the DP guarantee: it is a pure pre-noise
// refactor. The sparse kernels return bit-identical nonzero values to the
// dense vectors (same Δf, same u_max, same candidate domain), and every
// sparse draw selects from exactly the same output distribution as its
// dense counterpart — the support/tail split only reorganizes how the same
// per-candidate probabilities are sampled, it never changes them. The
// property tests pin this: exact per-node probability equality for
// Exponential/Smoothing/Best, chi-squared goodness of fit for the
// two-stage zero-tail draw and for Laplace, and bit-identical fixed-seed
// draws when the tail is empty. Identical output distribution ⇒ identical
// ε-DP guarantee and identical budget accounting.
//
// # Live graphs
//
// The paper's setting is a live social network: edges arrive while
// recommendations are served. A Recommender built with WithLiveMutations
// (or the knobs implying it, WithRebuildInterval and WithMaxPendingDeltas)
// retains a concurrency-safe mutable copy of its graph and accepts
// streaming writes:
//
//	rec, _ := socialrec.NewRecommender(g,
//		socialrec.WithRebuildInterval(100*time.Millisecond),
//		socialrec.WithMaxPendingDeltas(1024),
//	)
//	defer rec.Close()
//	rec.AddEdge(3, 9)       // journaled; visible at the next rebuild
//	rec.RemoveEdge(1, 2)
//	id, _ := rec.AddNode()
//
// Writes are journaled into a delta log and never block reads: readers keep
// serving the current immutable snapshot until a background rebuilder folds
// the pending deltas into a fresh snapshot — incrementally patching the CSR
// for small batches — and swaps it in atomically, advancing the cache
// epoch. The rebuild is debounced by WithRebuildInterval and forced early
// once WithMaxPendingDeltas mutations accumulate; Rebuild folds pending
// deltas synchronously, and SnapshotVersion / PendingDeltas / LiveStats
// expose the subsystem for monitoring.
//
// Why live mutation is DP-safe: applying deltas is pre-processing — it
// changes the input graph that future snapshots are computed from, not any
// released output. Each recommendation is ε-differentially private with
// respect to the snapshot that produced it, because the privacy-bearing
// noise is drawn fresh per request after the deterministic pre-processing
// stage; no output is ever perturbed retroactively, and budget accounting
// composes exactly as for a static graph. The epoch-keyed cache guarantees
// pre-processing from an old graph is never mixed into answers over a new
// one.
//
// # Cache invalidation
//
// A snapshot swap bumps the cache epoch, and a naive swap would orphan
// every entry, so a live graph under steady mutation traffic would serve
// almost entirely uncached. Instead every live rebuild of a cached
// Recommender retains the entries its delta batch provably did not touch.
//
// Retention rests on a per-utility invalidation radius. A utility declares
// locality by implementing InvalidationRadius() int (utility.Localized):
// radius ρ promises its output for target r is fully determined by r's
// ρ-hop out-ball. CommonNeighbors and Jaccard declare 2, WeightedPaths
// declares its path-length truncation (3 by default). At each live
// rebuild, the drained delta batch's endpoints are expanded ρ reverse-BFS
// hops over the post-patch graph. This equals their reverse ρ-ball in the
// union of the pre- and post-patch graphs, which holds every target the
// batch could change: an edge the batch removed has delta endpoints at both
// ends, so a shortest path through the union never needs it, and an edge
// the batch added (possibly pulling a node into a previously empty support)
// is in the post-patch graph. Entries whose target falls in that reverse
// ρ-ball are dropped; every other entry is re-keyed to the new epoch in
// place and keeps serving. CacheStats.Retained / .Invalidated
// (and /healthz) count both outcomes.
//
// No reverse dependency index is kept: an entry's closure — the target,
// its out-neighbors and its support — lies inside the target's ρ-out-ball,
// so a delta endpoint in the closure already places the target in the
// endpoint's reverse ρ-ball. The swap costs one reverse BFS from the delta
// endpoints (at most one pass over the post-patch in-edges, marking one bit
// per node) plus one sweep of the cache, and cache inserts and evictions
// pay nothing for it. On a heavy-tailed graph a few random edges near hubs
// can reach most of the graph within ρ hops, so little is retained there;
// the BFS keeps that case cheap rather than avoiding it.
//
// The conservative fallback: retention only happens when it is provably
// bit-exact. The swap flushes everything when the utility declares no
// radius (Degree scores every node; PageRank propagates mass globally),
// when the batch adds a node (the candidate count n-1-d(r) baked into every
// entry's tail ranks changes), when Δf or the smoothing weight changed
// across the swap (baked into cached CDF weights), when a failed rebuild
// lost the incremental basis, and on RefreshSnapshot (an arbitrary new
// graph carries no delta information).
//
// Why retention is DP-safe: a retained entry is pure pre-noise state — raw
// utilities that never leave the process — and the locality contract makes
// it bit-identical to what a cache miss would recompute from the new
// snapshot (the retention tests and fuzzer enforce this field-for-field).
// The mechanism's output distribution over the new graph is therefore
// exactly that of an uncached Recommender: the same Δf is in force, and the
// privacy-bearing noise is still drawn fresh per request. No randomness and
// no released output ever crosses a snapshot boundary.
//
// # Durability and failure model
//
// A live Recommender's delta log and serving snapshots live in process
// memory, so by default a crash loses every mutation since the last
// persisted snapshot. WithWAL closes that window with a write-ahead log:
// every accepted mutation is journaled to a segmented, length-prefixed,
// CRC-32-checksummed on-disk log before it is applied or acknowledged.
// The ack contract is exact — AddEdge, RemoveEdge, and AddNode return nil
// only after the record is in the WAL (and, under the default fsync
// policy, on stable storage), and an append failure vetoes the mutation
// entirely: it is rolled back from the mutable graph and never becomes
// pending, so the WAL can never hold less than the acknowledged state.
// On reopen, the log replays onto the initial graph or the newest
// persisted snapshot; replay is idempotent (records a snapshot already
// covers skip as no-ops), tolerates torn tails (a partial or corrupt
// final frame — the debris of an append interrupted mid-write — is
// truncated, and nothing past the first bad checksum is ever replayed),
// and converges to a graph bit-identical to the acknowledged pre-crash
// state. Once a snapshot persists durably, the WAL segments it covers are
// deleted, bounding log growth.
//
// WithWALSync picks the durability/latency trade: FsyncAlways (default)
// fsyncs before every acknowledgment, so kill -9 and power loss lose
// zero acknowledged mutations; FsyncInterval batches fsyncs on a short
// timer, surviving process crashes but risking the last interval on
// power loss; FsyncOff leaves flushing to the OS.
//
// Failures past the ack point degrade instead of killing serving. Snapshot
// persistence and rebuilds retry with bounded exponential backoff; when
// retries exhaust, the Recommender keeps serving the last good snapshot
// and reports the failing subsystem via Degraded and LiveStats (recserver
// surfaces it as "status": "degraded" on /healthz), clearing the flag on
// the next success. A failed incremental rebuild falls back to a full
// rebuild from the mutable graph, which still holds every acknowledged
// mutation.
//
// Why the WAL is DP-safe: the log records accepted graph mutations —
// pre-noise input state, exactly what the mutable graph already holds —
// and replay is pure pre-processing that reconstructs the input graph
// before any mechanism draw. No released output, no noise, and no budget
// state flows through the WAL, so recovery neither replays nor re-releases
// anything the composition analysis counts; recommendations served after
// recovery draw fresh noise against the recovered snapshot exactly as if
// the process had never died.
//
// # Storage layer
//
// Everything above the graph package serves from a narrow read-only
// snapshot interface (degrees, sorted neighbor spans, the two neighborhood
// scans the utilities are built from), with two interchangeable backends
// behind it, selected at load time and invisible to the mechanism layer.
//
// Snapshots persist in the .srsnap binary format: an 8-byte magic and
// versioned 64-byte header followed by the four CSR sections (out-index,
// out-adjacency, and the in-adjacency mirror for directed graphs) as
// checksummed little-endian int32 arrays. WriteSnapshotFile produces one
// atomically (temp file + rename); recgen writes one directly for any -out
// name ending in ".srsnap".
//
//	socialrec.WriteSnapshotFile("social.srsnap", g)
//	rec, err := socialrec.NewRecommender(nil,
//		socialrec.WithSnapshotFile("social.srsnap"))
//	defer rec.Close()
//
// The heap backend (SnapshotHeap) decodes the file into process memory —
// the same CSR layout Graph.Snapshot builds, minus the edge-list re-parse
// and adjacency-map construction that dominate cold start. The mmap
// backend (SnapshotMmap; SnapshotAuto picks it where available) goes
// further: it lays []int32 views directly over the memory-mapped file and
// serves zero-copy out of the OS page cache. Opening either backend costs
// one sequential checksum-and-validation pass over the file — linear in
// its size, but running at disk/memory bandwidth with no parsing and (for
// mmap) no per-edge allocation, tens of times faster than the edge-list
// path in the recbench cold-start benchmark. Beyond that pass
// the mmap backend's peak RSS no longer pays the build-then-flatten 2×
// transient, processes mapping the same file share one physical copy, and
// steady-state serving pages rows on demand, so the graph may exceed RAM.
// The trade-off: first-touch scans can take page faults where the heap
// backend would have warm memory, so latency-critical deployments with
// small graphs may prefer SnapshotHeap.
//
// Live mutations compose with either backend: rebuilds patch rows out of
// the current store into fresh heap CSRs (a writable copy-on-write overlay
// never aliasing the mapping), and WithSnapshotPersist writes every
// swapped snapshot back to disk atomically, so a restart resumes from the
// newest persisted graph.
//
// Why the storage layer is DP-safe: the backend changes the
// representation of the snapshot, never its content or the mechanism
// consuming it. Both backends expose bit-identical adjacency decoded from
// the same checksummed sections, every utility vector computed over them
// is identical, and the privacy-bearing noise is drawn after that
// deterministic stage — so the mechanism's output distribution, and
// therefore the ε-DP guarantee and budget accounting, is invariant to
// which store serves the graph (this is pinned by a property test
// comparing heap- and mmap-served Recommenders output-for-output).
//
// # Static analysis
//
// The invariants above are contracts between packages, and most of them
// are invisible to the type system: nothing stops a new call site from
// drawing math/rand global randomness, fabricating a cache epoch, or
// sampling noise before reserving budget. The reclint suite
// (internal/lint, run via cmd/reclint both standalone and as a
// go vet -vettool, gated in CI) mechanically enforces the ones that have
// bitten or nearly bitten:
//
//   - rngdiscipline: all randomness must flow through
//     distribution.NewRNG/SplitN seeded streams — no global math/rand
//     draws, no ad-hoc rand.New outside internal/distribution and
//     internal/mechanism. Guards the determinism contract behind
//     replayable noise, the dpcheck harness, and every seeded benchmark
//     (see "What the theory says" and the mechanism layer).
//
//   - poolscratch: values obtained from stream.Pool.Get must not be used
//     after Put and must not be stored into longer-lived structures, and a
//     pooled utility.Support must not be used after its Release. Guards
//     the request path's scratch ownership rule ("Pooled request path":
//     a request owns its pooled support until it releases it).
//
//   - atomicfield: a struct field accessed through sync/atomic anywhere
//     must be accessed that way everywhere — one plain read next to an
//     atomic increment is a data race the race detector only catches when
//     the schedule cooperates. The repo itself uses typed atomics
//     (atomic.Int64 and friends), which are immune by construction; the
//     analyzer keeps mixed-discipline code from creeping back in.
//
//   - epochkey: cache insertions and key literals must derive their epoch
//     from snapshot-state plumbing rather than fabricating one — a made-up
//     epoch silently defeats the delta-aware invalidation of
//     "Cache invalidation" and can serve stale utility vectors across a
//     snapshot swap.
//
//   - noiseorder: inside Accountant methods, any mechanism sampling must
//     be dominated by the budget reservation — reservation-before-query is
//     what makes the ε-accounting of "Budget accounting" sound under
//     crashes and concurrency.
//
// Findings are suppressed only by an inline "//lint:allow <analyzer>
// <reason>" comment with a mandatory reason; a missing reason is itself
// reported. Each analyzer ships positive and negative fixtures under
// internal/lint/testdata, and cmd/reclint has a smoke test pinning that
// the suite stays clean over this repository.
package socialrec
