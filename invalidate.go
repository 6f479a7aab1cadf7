package socialrec

import (
	"socialrec/internal/graph"
	"socialrec/internal/utility"
)

// Delta-aware cache invalidation: a snapshot swap used to orphan every
// cached utility vector by bumping the epoch, so a live graph under steady
// mutation traffic served almost entirely uncached. But the serving
// utilities are local — a CommonNeighbors vector depends only on the 2-hop
// out-ball of its target — so a small delta batch provably cannot touch the
// vast majority of cached targets. This file computes, for one drained
// batch, a conservative superset of the targets whose entries could differ
// on the new snapshot; vectorCache.advance then re-keys every other entry
// to the new epoch untouched.
//
// Correctness rests on the utility.Localized contract: with declared radius
// ρ, the entry for target r is a pure function of r's ρ-hop out-ball (rows
// at out-distance < ρ, degrees at distance <= ρ). Comparing the pre-patch
// graph G and the post-patch graph G', the entry can differ only if some
// edge of the symmetric difference — a subset of the batch's edge deltas —
// intersects that ball in G or in G'. Contrapositive: if no delta endpoint
// is within ρ out-hops of r in either graph, the ball subgraphs are
// identical edge-for-edge and the recomputed entry — idx, val, umax, skip,
// and (given an unchanged candidate count, Δf, and smoothing x) the CDF —
// is bit-identical, because the kernels are deterministic scans of exactly
// that ball. So it suffices to drop the reverse ρ-hop ball of the delta
// endpoints over the union of G and G' (which contains both per-graph
// balls). Following the in-edges of G' alone yields exactly that ball: an
// edge of G missing from G' was removed by the batch, so both its
// endpoints are delta endpoints themselves, and a shortest union path from
// r to the endpoint set therefore never uses one (it would reach an
// endpoint earlier). An edge add that pulls a node into a previously empty
// support is an edge of G', so its in-edges find it.
//
// Two conditions void the ball argument entirely and force a full flush:
// node additions (the candidate count n-1-d(r) of EVERY target changes, and
// ncand is baked into each entry's tail ranks), and any change to the
// state-wide Δf or smoothing x (baked into each entry's CDF weights).
//
// DP-safety of retention: a cached entry is pure pre-noise state — raw
// utilities, never released. Retention only ever serves an entry that is
// bit-identical to what a cache miss would recompute from the new snapshot,
// so the mechanism's output distribution — and therefore the ε guarantee —
// is exactly that of an uncached Recommender over the new graph. The
// privacy-bearing noise is still drawn fresh per request; no randomness and
// no released output ever crosses a snapshot boundary.

// retentionRadius returns the serving utility's declared invalidation
// radius, or 0 when the cache must fall back to full flushes (utility not
// Localized).
func (r *Recommender) retentionRadius() int {
	lu, ok := r.util.(utility.Localized)
	if !ok {
		return 0
	}
	if rad := lu.InvalidationRadius(); rad > 0 {
		return rad
	}
	return 0
}

// affectedByBatch returns the set of targets one drained delta batch may
// have touched — the batch's edge endpoints expanded radius reverse-BFS
// hops over the post-patch adjacency, one bit per node — for
// vectorCache.advance, which drops every cached target in it and re-keys
// the rest. No per-entry dependency bookkeeping is needed: an entry's
// closure (skip = target ∪ out-neighbors ∪ support) lies inside the
// target's ρ-out-ball, so any delta endpoint in the closure puts the target
// in that endpoint's reverse ρ-ball — already in the set.
//
// It returns nil, meaning the swap must flush everything, when:
//
//   - the utility declares no radius;
//   - basisLost: a previous rebuild drained deltas but failed to install a
//     snapshot, so this batch is not the complete diff between cur and next;
//   - the batch adds a node (every entry's candidate count changes);
//   - Δf or the smoothing x changed across the swap (baked into CDFs).
func (r *Recommender) affectedByBatch(cur, next *snapState, deltas []graph.Delta, basisLost bool) bitset {
	radius := r.retentionRadius()
	if radius == 0 || basisLost {
		return nil
	}
	if next.sens != cur.sens || next.x != cur.x {
		return nil
	}
	// Nodes are never removed, so a changed node count means the batch
	// added one.
	n := next.snap.NumNodes()
	if cur.snap.NumNodes() != n {
		return nil
	}
	aff := newBitset(n)
	frontier := make([]int32, 0, 2*len(deltas))
	mark := func(v int32) {
		if !aff.has(int(v)) {
			aff.set(int(v))
			frontier = append(frontier, v)
		}
	}
	for _, d := range deltas {
		mark(int32(d.From))
		mark(int32(d.To))
	}
	// Reverse BFS: a target is affected when a delta endpoint lies within
	// radius out-hops of it, so the set is grown by following in-edges from
	// the endpoints. The post-patch store suffices (see the file comment);
	// on undirected graphs In == Out and this is the plain neighborhood
	// ball.
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		level := frontier
		frontier = nil
		for _, v := range level {
			for _, u := range next.snap.In(int(v)) {
				mark(u)
			}
		}
	}
	return aff
}
