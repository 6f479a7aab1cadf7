package socialrec

import (
	"errors"
	"fmt"

	"socialrec/internal/graph"
)

// Snapshot files: the storage layer persists immutable graph snapshots in
// the versioned, checksummed binary .srsnap format (see internal/graph's
// codec), and a Recommender can be cold-started from one without ever
// re-parsing an edge list or rebuilding adjacency maps. Two interchangeable
// backends serve the same file: a heap-resident decode, and a zero-copy
// memory mapping that serves straight out of the OS page cache — sub-second
// cold starts, one physical copy shared across processes, and a graph that
// can exceed the process heap. Both backends expose bit-identical adjacency,
// so which one is plugged in never changes any mechanism's output
// distribution (see doc.go, "Storage layer").

// SnapshotMode selects the backend OpenSnapshot serves a snapshot file
// with.
type SnapshotMode int

const (
	// SnapshotAuto memory-maps the file where the platform supports it and
	// falls back to a heap decode elsewhere. The right default.
	SnapshotAuto SnapshotMode = iota
	// SnapshotHeap decodes the file into process memory: slightly faster
	// scans on hot graphs, at the cost of load time and a private copy.
	SnapshotHeap
	// SnapshotMmap requires the zero-copy mapping and fails where it is
	// unavailable.
	SnapshotMmap
)

// String implements fmt.Stringer.
func (m SnapshotMode) String() string {
	switch m {
	case SnapshotAuto:
		return "auto"
	case SnapshotHeap:
		return "heap"
	case SnapshotMmap:
		return "mmap"
	default:
		return fmt.Sprintf("SnapshotMode(%d)", int(m))
	}
}

// ParseSnapshotMode converts the CLI spellings ("auto", "heap", "mmap")
// into a SnapshotMode.
func ParseSnapshotMode(s string) (SnapshotMode, error) {
	switch s {
	case "auto", "":
		return SnapshotAuto, nil
	case "heap":
		return SnapshotHeap, nil
	case "mmap":
		return SnapshotMmap, nil
	default:
		return 0, fmt.Errorf("socialrec: unknown snapshot mode %q (want auto, heap, or mmap)", s)
	}
}

// Snapshot is an immutable graph snapshot opened from a .srsnap file,
// ready to serve recommendations through NewRecommenderFromSnapshot.
type Snapshot struct {
	store  graph.Store
	mapped *graph.Mapped // non-nil when the store owns a live memory mapping
	path   string
}

// Snapshot and codec errors re-exported from the storage layer.
var (
	ErrSnapshotFormat   = graph.ErrSnapshotFormat
	ErrSnapshotVersion  = graph.ErrSnapshotVersion
	ErrSnapshotChecksum = graph.ErrSnapshotChecksum
)

// ErrMmapUnavailable is returned by OpenSnapshot(path, SnapshotMmap) when
// the platform cannot memory-map the file.
var ErrMmapUnavailable = errors.New("socialrec: memory mapping unavailable on this platform")

// OpenSnapshot opens the .srsnap file at path, verifying its checksums and
// structural invariants. Close the returned Snapshot when no Recommender
// serves from it anymore; for memory-mapped snapshots, closing while a
// Recommender still reads from it is unsafe.
func OpenSnapshot(path string, mode SnapshotMode) (*Snapshot, error) {
	switch mode {
	case SnapshotHeap:
		c, err := graph.ReadSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		return &Snapshot{store: c, path: path}, nil
	case SnapshotAuto, SnapshotMmap:
		if mode == SnapshotMmap && !graph.MmapAvailable() {
			// Fail before OpenMapped's heap-decode fallback does a full
			// read that would only be discarded.
			return nil, fmt.Errorf("%w: %s", ErrMmapUnavailable, path)
		}
		m, err := graph.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		if mode == SnapshotMmap && !m.Mapped() {
			return nil, fmt.Errorf("%w: %s", ErrMmapUnavailable, path)
		}
		s := &Snapshot{store: m, path: path}
		if m.Mapped() {
			s.mapped = m
		}
		return s, nil
	default:
		return nil, fmt.Errorf("socialrec: unknown snapshot mode %v", mode)
	}
}

// NumNodes returns the snapshot's node count.
func (s *Snapshot) NumNodes() int { return s.store.NumNodes() }

// NumEdges returns the snapshot's edge count (each undirected edge counted
// once).
func (s *Snapshot) NumEdges() int { return s.store.NumEdges() }

// Directed reports whether the snapshot holds a directed graph.
func (s *Snapshot) Directed() bool { return s.store.Directed() }

// Mapped reports whether the snapshot is served by a live memory mapping
// (false for heap decodes and platform fallbacks).
func (s *Snapshot) Mapped() bool { return s.mapped != nil }

// Path returns the file the snapshot was opened from.
func (s *Snapshot) Path() string { return s.path }

// Graph materializes a mutable copy of the snapshot's graph.
func (s *Snapshot) Graph() (*Graph, error) { return graph.FromStore(s.store) }

// Close releases the snapshot's resources (the memory mapping, when one is
// live). It is idempotent. Only close after every Recommender serving from
// the snapshot has stopped.
func (s *Snapshot) Close() error {
	if s.mapped == nil {
		return nil
	}
	return s.mapped.Close()
}

// NewRecommenderFromSnapshot builds a Recommender serving directly from an
// opened snapshot — zero-copy when the snapshot is memory-mapped. The
// caller keeps ownership of snap and must keep it open for the
// Recommender's lifetime (prefer NewRecommender(nil, WithSnapshotFile(...))
// to make the Recommender own it). Live mutations work: the mutable basis
// is materialized from the snapshot, and subsequent rebuilds serve from
// heap overlays — each rebuild's delta batch drives cache retention across
// the swap exactly as for an in-memory construction graph (the reverse-BFS
// walks the mapped store's in-edge spans zero-copy).
func NewRecommenderFromSnapshot(snap *Snapshot, opts ...Option) (*Recommender, error) {
	if snap == nil {
		return nil, ErrNilGraph
	}
	r, err := configureRecommender(opts)
	if err != nil {
		return nil, err
	}
	if r.pendingSnapshotFile != "" {
		return nil, errors.New("socialrec: WithSnapshotFile is redundant with NewRecommenderFromSnapshot; use one or the other")
	}
	st, err := r.buildStateFromSnap(snap.store, 0)
	if err != nil {
		return nil, err
	}
	if err := r.finishInit(st, func() (*Graph, error) { return graph.FromStore(snap.store) }); err != nil {
		return nil, err
	}
	return r, nil
}
