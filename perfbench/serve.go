package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"socialrec"
	"socialrec/internal/distribution"
	"socialrec/internal/recserver"
)

// server is one set-up instance of the program under test: the
// Recommender and the recserver handler in front of it, configured as
// recserve configures them.
type server struct {
	w   *workload
	in  *inputs
	rec *socialrec.Recommender
	h   *recserver.Server

	// Writes run one at a time under writeMu: nextEdge indexes the edge
	// pool and acked lists the acknowledged writes in order, which is WAL
	// order. acked is read without the lock only once the load has stopped.
	writeMu  sync.Mutex
	nextEdge int
	acked    []ack

	// versions maps each observed snapshot version to the WAL prefix it
	// covers, so the checker can rebuild the graph each read was served
	// from.
	verMu    sync.Mutex
	versions map[uint32]version
}

type ack struct {
	edge [2]int32
	at   time.Time
}

type version struct {
	covered uint64 // acknowledged writes folded into this snapshot
	seen    time.Time
}

// setupTimes splits one set-up: load is the graph or snapshot load (for a
// live server, the whole snapshot-backed NewRecommender); total adds the
// Recommender and recserver.New.
type setupTimes struct{ load, total time.Duration }

// setup starts a server the way recserve does for this workload. Input
// generation is done; only what a starting server pays is timed.
func setup(w *workload, in *inputs, dir string, rep int) (*server, setupTimes, error) {
	var t setupTimes
	opts := []socialrec.Option{
		socialrec.WithEpsilon(epsilon),
		socialrec.WithMechanism(socialrec.MechanismExponential),
		socialrec.WithSeed(distribution.SplitSeed(in.seed, "server")),
	}
	var walDir string
	if w.live {
		walDir = filepath.Join(dir, "wal-"+strconv.Itoa(rep))
		if err := os.RemoveAll(walDir); err != nil {
			return nil, t, err
		}
		opts = append(opts,
			socialrec.WithRebuildInterval(socialrec.DefaultRebuildInterval),
			socialrec.WithMaxPendingDeltas(socialrec.DefaultMaxPendingDeltas),
			socialrec.WithWAL(walDir),
			socialrec.WithWALSync(socialrec.FsyncInterval),
			socialrec.WithSnapshotFileMode(in.snapPath, socialrec.SnapshotAuto),
		)
	}
	start := time.Now()
	var rec *socialrec.Recommender
	var err error
	if w.live {
		rec, err = socialrec.NewRecommender(nil, opts...)
		t.load = time.Since(start)
	} else {
		var g *socialrec.Graph
		g, err = socialrec.ReadGraphFile(in.edgeList, false)
		t.load = time.Since(start)
		if err == nil {
			rec, err = socialrec.NewRecommender(g, opts...)
		}
	}
	if err != nil {
		return nil, t, fmt.Errorf("set-up: %w", err)
	}
	h, err := recserver.New(recserver.Config{
		Recommender:         rec,
		PerPrincipalEpsilon: w.perPrincipal,
		CacheSize:           w.cache,
		HandlerTimeout:      handlerTimeout,
		MaxInFlight:         maxInFlight,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "recserver: "+format+"\n", args...)
		},
	})
	t.total = time.Since(start)
	if err != nil {
		rec.Close()
		return nil, t, fmt.Errorf("set-up: %w", err)
	}
	s := &server{w: w, in: in, rec: rec, h: h, versions: map[uint32]version{}}
	if err := s.observe(uint32(rec.SnapshotVersion())); err != nil {
		rec.Close()
		return nil, t, err
	}
	return s, t, nil
}

// close stops the Recommender's background work and waits for it.
func (s *server) close() error { return s.rec.Close() }

// observe records which WAL prefix snapshot version v covers, the first
// time a worker sees v. A version that is replaced before it can be read
// consistently stays unmapped; reads served from it get the weaker check.
func (s *server) observe(v uint32) error {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	if _, ok := s.versions[v]; ok {
		return nil
	}
	now := time.Now()
	if !s.w.live {
		s.versions[v] = version{seen: now}
		return nil
	}
	st, ok := s.rec.LiveStats()
	if !ok || st.WAL == nil {
		return fmt.Errorf("live server reports no WAL")
	}
	if uint32(st.SnapshotVersion) == v && uint32(s.rec.SnapshotVersion()) == v {
		s.versions[v] = version{covered: st.WAL.CoveredLSN, seen: now}
	}
	return nil
}

// client is one load-generating goroutine's reusable request state.
type client struct {
	rw      recorder
	lastVer uint32
	hasVer  bool
}

// recorder is a minimal reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body []byte
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, p...)
	return len(p), nil
}

func (r *recorder) reset() {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	clear(r.hdr)
	r.code = 0
	r.body = r.body[:0]
}

// request builds what net/http would hand the handler for method path?query.
func request(method, path, query string) *http.Request {
	return &http.Request{
		Method:     method,
		URL:        &url.URL{Path: path, RawQuery: query},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Body:       http.NoBody,
		Host:       "bench",
		RequestURI: path + "?" + query,
	}
}

// exec sends one operation through recserver.Server.ServeHTTP, exactly as
// the HTTP server would after parsing, and records the answer.
func (s *server) exec(c *client, o op, r *result) {
	if o.kind == opWrite {
		s.writeMu.Lock()
		defer s.writeMu.Unlock()
		e := s.in.edges[s.nextEdge]
		s.nextEdge++
		r.target, r.to = e[0], e[1]
		s.serve(c, r, request(http.MethodPost, "/edges",
			"from="+strconv.Itoa(int(e[0]))+"&to="+strconv.Itoa(int(e[1]))))
		if r.status == http.StatusCreated {
			s.acked = append(s.acked, ack{edge: e, at: time.Now()})
		}
		return
	}
	q := "target=" + strconv.Itoa(int(o.target))
	if o.k > 1 {
		q += "&k=" + strconv.Itoa(int(o.k))
	}
	s.serve(c, r, request(http.MethodGet, "/v1/recommend", q))
	if r.status == http.StatusOK {
		r.nn = parseNodes(c.rw.body, &r.nodes)
	}
}

// serve runs one request, noting the snapshot versions around it.
func (s *server) serve(c *client, r *result, req *http.Request) {
	r.verBefore = uint32(s.rec.SnapshotVersion())
	if !c.hasVer || r.verBefore != c.lastVer {
		if err := s.observe(r.verBefore); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		c.lastVer, c.hasVer = r.verBefore, true
	}
	c.rw.reset()
	s.h.ServeHTTP(&c.rw, req)
	r.verAfter = uint32(s.rec.SnapshotVersion())
	r.status = uint16(c.rw.code)
}

var nodesKey = []byte(`"nodes":[`)

// parseNodes reads the "nodes" array of a recommend response into dst and
// returns how many it held; a malformed body yields 0 nodes, which the
// checker rejects.
func parseNodes(body []byte, dst *[maxK]int32) uint8 {
	i := bytes.Index(body, nodesKey)
	if i < 0 {
		return 0
	}
	var n uint8
	v, digits := 0, 0
	for _, b := range body[i+len(nodesKey):] {
		switch {
		case b >= '0' && b <= '9':
			v = v*10 + int(b-'0')
			digits++
		case b == ',' || b == ']':
			if digits == 0 || int(n) == maxK {
				return 0
			}
			dst[n] = int32(v)
			n++
			v, digits = 0, 0
			if b == ']' {
				return n
			}
		default:
			return 0
		}
	}
	return 0
}
