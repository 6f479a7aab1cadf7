package main

import (
	"fmt"
	"runtime"

	"socialrec"
)

// counters is a snapshot of the program's own counters: cache, live
// rebuilder, pooled scratch, and the Go runtime.
type counters struct {
	cache socialrec.CacheStats
	live  socialrec.LiveStats
	pools []socialrec.PoolStat
	mem   runtime.MemStats
}

func (s *server) counters() counters {
	var c counters
	c.cache, _ = s.rec.CacheStats()
	c.live, _ = s.rec.LiveStats()
	c.pools = socialrec.StreamPoolStats()
	runtime.ReadMemStats(&c.mem)
	return c
}

// counterDelta is what one or more windows changed.
type counterDelta struct {
	hits, misses, invalidated uint64
	rebuilds, incremental     uint64
	poolGets, poolNews        uint64
	mallocs, gcPauseNs        uint64
	gcCycles                  uint32
	// entries and bytes are the cache's size at the end of the last window.
	entries int
	bytes   int64
}

func delta(a, b counters) counterDelta {
	d := counterDelta{
		hits:        b.cache.Hits - a.cache.Hits,
		misses:      b.cache.Misses - a.cache.Misses,
		invalidated: b.cache.Invalidated - a.cache.Invalidated,
		rebuilds:    b.live.Rebuilds - a.live.Rebuilds,
		incremental: b.live.IncrementalRebuilds - a.live.IncrementalRebuilds,
		mallocs:     b.mem.Mallocs - a.mem.Mallocs,
		gcCycles:    b.mem.NumGC - a.mem.NumGC,
		gcPauseNs:   b.mem.PauseTotalNs - a.mem.PauseTotalNs,
		entries:     b.cache.Entries,
		bytes:       b.cache.Bytes,
	}
	before := map[string]socialrec.PoolStat{}
	for _, p := range a.pools {
		before[p.Name] = p
	}
	for _, p := range b.pools {
		d.poolGets += p.Gets - before[p.Name].Gets
		d.poolNews += p.News - before[p.Name].News
	}
	return d
}

// add accumulates a later window's delta.
func (d *counterDelta) add(o counterDelta) {
	d.hits += o.hits
	d.misses += o.misses
	d.invalidated += o.invalidated
	d.rebuilds += o.rebuilds
	d.incremental += o.incremental
	d.poolGets += o.poolGets
	d.poolNews += o.poolNews
	d.mallocs += o.mallocs
	d.gcPauseNs += o.gcPauseNs
	d.gcCycles += o.gcCycles
	d.entries, d.bytes = o.entries, o.bytes
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (d counterDelta) hitRatio() float64         { return ratio(d.hits, d.hits+d.misses) }
func (d counterDelta) incrementalRatio() float64 { return ratio(d.incremental, d.rebuilds) }
func (d counterDelta) poolNewRatio() float64     { return ratio(d.poolNews, d.poolGets) }
func (d counterDelta) allocsPerOp(ops int) float64 {
	return ratio(d.mallocs, uint64(ops))
}

func (d counterDelta) print(ops int) {
	fmt.Printf("# counters over the fixed-rate windows: cache hits=%d misses=%d hit_ratio=%.4f invalidated=%d entries=%d bytes=%d; rebuilds=%d incremental_ratio=%.3f; pool gets=%d news=%d; allocs/op=%.2f gc cycles=%d pause=%.3fms\n",
		d.hits, d.misses, d.hitRatio(), d.invalidated, d.entries, d.bytes,
		d.rebuilds, d.incrementalRatio(), d.poolGets, d.poolNews, d.allocsPerOp(ops), d.gcCycles, float64(d.gcPauseNs)/1e6)
}
