package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/query"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/wire"
	"repro/visdb/client"
)

// A subject is the system at one deployment depth, stood up inside the
// bench process. The driver only hands it ops and reads results back.

// digest is a word-wise FNV-1a fold. A step's read-back (displayed
// count, then item and distance bits in rank order) folds into one
// word; two subjects agree on a step iff the words are equal.
type digest uint64

const (
	digestSeed  digest = 14695981039346656037
	digestPrime digest = 1099511628211
)

func (d digest) word(x uint64) digest { return (d ^ digest(x)) * digestPrime }

// stepOut is what one step reports back to the driver.
type stepOut struct {
	hash    digest        // the read-back, folded
	mutate  time.Duration // the mutation call alone, read-back excluded
	tm      wire.Timings  // stage timings of the recalculation the mutation ran
	recalcs int           // engine runs this step caused, as the session counts them
}

// counters are the cumulative per-layer counts a subject can read off
// the system's public stats; the driver differences two snapshots.
type counters struct {
	shared        wire.SharedStats // summed over every shared cache
	serverRecalcs uint64           // ShardStats.Recalcs, summed
	kv            kv.Stats
	segCacheBytes int64 // decoded-segment caches, summed
	recoveries    uint64
}

type subject interface {
	// open creates client c's session and reads the first picture back.
	open(ctx context.Context, c int, st *stepTrace) (stepOut, error)
	// step applies one op for client c and reads the whole displayed
	// prefix back.
	step(ctx context.Context, c int, o op, st *stepTrace) (stepOut, error)
	counters(ctx context.Context) (counters, error)
	close() error
}

// --- in-process: drag_inproc and cold_disk ------------------------------

// localSubject runs session.Sessions on one catalog sharing one
// core.SharedCache, in process.
type localSubject struct {
	cat      *dataset.Catalog
	shared   *core.SharedCache
	sessions []*session.Session
}

// newLocalSubject shares one cache of sharedBytes (0 = the default
// budget) between the clients' sessions.
func newLocalSubject(cat *dataset.Catalog, sharedBytes int64, clients int) *localSubject {
	return &localSubject{cat: cat, shared: core.NewSharedCache(0, sharedBytes),
		sessions: make([]*session.Session, clients)}
}

func (s *localSubject) create(c int, sql string, st *stepTrace) (stepOut, error) {
	var out stepOut
	t0 := time.Now()
	sp := st.start()
	q, err := query.Parse(sql)
	st.end("query.parse", sp)
	if err != nil {
		return out, err
	}
	sp = st.start()
	sess, err := session.NewShared(s.cat, nil, core.Options{}, q, s.shared)
	st.end("session.create", sp)
	out.mutate = time.Since(t0)
	if err != nil {
		return out, err
	}
	s.sessions[c] = sess
	out.recalcs = sess.Recalcs
	s.readBack(c, &out, st)
	return out, nil
}

func (s *localSubject) open(_ context.Context, c int, st *stepTrace) (stepOut, error) {
	return s.create(c, dragQuery(c), st)
}

func (s *localSubject) step(_ context.Context, c int, o op, st *stepTrace) (stepOut, error) {
	if o.Kind == opCreate {
		return s.create(c, o.SQL, st)
	}
	sess := s.sessions[c]
	before := sess.Recalcs
	var out stepOut
	var err error
	t0 := time.Now()
	sp := st.start()
	switch o.Kind {
	case opRange:
		err = sess.SetRangeByAttr(o.Attr, o.Lo, o.Hi)
	case opWeight:
		preds := query.Predicates(sess.Query().Where)
		if o.Pred >= len(preds) {
			err = fmt.Errorf("predicate %d out of range", o.Pred)
		} else {
			err = sess.SetWeight(preds[o.Pred], o.Weight)
		}
	case opUndo:
		err = sess.Undo()
	}
	st.end("session.mutate", sp)
	out.mutate = time.Since(t0)
	if err != nil {
		return out, err
	}
	out.recalcs = sess.Recalcs - before
	s.readBack(c, &out, st)
	return out, nil
}

// readBack walks the displayed prefix the way a renderer would.
func (s *localSubject) readBack(c int, out *stepOut, st *stepTrace) {
	sp := st.start()
	res := s.sessions[c].Result()
	out.hash = hashResult(res)
	out.tm = wire.TimingsOf(res.Timings)
	st.end("readback", sp)
}

// foldPicture folds a read-back: the displayed count, then every
// displayed row's item and distance bits in rank order.
func foldPicture(displayed int, row func(rank int) (item int, distance float64)) digest {
	h := digestSeed.word(uint64(displayed))
	for rank := 0; rank < displayed; rank++ {
		item, d := row(rank)
		h = h.word(uint64(item)).word(math.Float64bits(d))
	}
	return h
}

func hashResult(res *core.Result) digest {
	return foldPicture(res.Displayed, func(rank int) (int, float64) {
		return res.Order[rank], res.DistanceOfRank(rank)
	})
}

func (s *localSubject) counters(context.Context) (counters, error) {
	_, segBytes := s.cat.CacheStats()
	return counters{shared: wire.SharedStatsOf(s.shared.Stats()), segCacheBytes: segBytes}, nil
}

func (s *localSubject) close() error { return s.cat.Close() }

// --- over the wire: drag_http and drag_fleet ------------------------------

// remoteSession is what client.Session and client.FleetSession share.
type remoteSession interface {
	SetRange(ctx context.Context, attr string, lo, hi float64) (client.Summary, error)
	SetWeight(ctx context.Context, pred int, weight float64) (client.Summary, error)
	Undo(ctx context.Context) (client.Summary, error)
	Results(ctx context.Context, top int) (client.Results, error)
	Close(ctx context.Context) error
}

// remoteSubject drives typed client sessions against daemons listening
// on loopback inside this process.
type remoteSubject struct {
	// create opens client c's session (plain or fleet).
	create   func(ctx context.Context, c int) (remoteSession, client.Summary, error)
	sessions []remoteSession
	recalcs  []int // last Summary.Recalcs seen per client
	members  []*client.Client
	catalogs []*dataset.Catalog
	kvStore  *kv.Server
	// stops tear the daemons down, in order; each waits for its
	// listener's goroutine to end.
	stops []func() error
}

func (s *remoteSubject) open(ctx context.Context, c int, st *stepTrace) (stepOut, error) {
	var out stepOut
	t0 := time.Now()
	sp := st.start()
	sess, sum, err := s.create(ctx, c)
	st.end("client.create", sp)
	out.mutate = time.Since(t0)
	if err != nil {
		return out, err
	}
	s.sessions[c] = sess
	err = s.finish(ctx, c, sum, &out, st)
	return out, err
}

func (s *remoteSubject) step(ctx context.Context, c int, o op, st *stepTrace) (stepOut, error) {
	sess := s.sessions[c]
	var out stepOut
	var sum client.Summary
	var err error
	t0 := time.Now()
	sp := st.start()
	switch o.Kind {
	case opRange:
		sum, err = sess.SetRange(ctx, o.Attr, o.Lo, o.Hi)
	case opWeight:
		sum, err = sess.SetWeight(ctx, o.Pred, o.Weight)
	case opUndo:
		sum, err = sess.Undo(ctx)
	default:
		err = fmt.Errorf("op %v is not served over the wire", o.Kind)
	}
	st.end("client.mutate", sp)
	out.mutate = time.Since(t0)
	if err != nil {
		return out, err
	}
	err = s.finish(ctx, c, sum, &out, st)
	return out, err
}

// finish records the mutation's summary and reads the picture back.
func (s *remoteSubject) finish(ctx context.Context, c int, sum client.Summary, out *stepOut, st *stepTrace) error {
	out.tm = sum.Timings
	out.recalcs = sum.Recalcs - s.recalcs[c]
	s.recalcs[c] = sum.Recalcs
	sp := st.start()
	res, err := s.sessions[c].Results(ctx, -1)
	st.end("client.results", sp)
	if err != nil {
		return err
	}
	if len(res.Rows) != res.Summary.Displayed {
		return fmt.Errorf("read-back has %d rows, summary says %d displayed", len(res.Rows), res.Summary.Displayed)
	}
	out.hash = foldPicture(len(res.Rows), func(rank int) (int, float64) {
		return res.Rows[rank].Item, res.Rows[rank].Distance
	})
	return nil
}

func (s *remoteSubject) counters(ctx context.Context) (counters, error) {
	var cn counters
	for _, m := range s.members {
		shards, err := m.ShardStats(ctx)
		if err != nil {
			return cn, err
		}
		for _, sh := range shards {
			cn.shared.Add(sh.Shared)
			cn.serverRecalcs += sh.Recalcs
		}
	}
	for _, cat := range s.catalogs {
		_, b := cat.CacheStats()
		cn.segCacheBytes += b
	}
	if s.kvStore != nil {
		cn.kv = s.kvStore.Stats()
	}
	for _, sess := range s.sessions {
		if fs, ok := sess.(*client.FleetSession); ok {
			cn.recoveries += fs.Recoveries()
		}
	}
	return cn, nil
}

func (s *remoteSubject) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, sess := range s.sessions {
		if sess != nil {
			errs = append(errs, sess.Close(ctx))
		}
	}
	for i := len(s.stops) - 1; i >= 0; i-- {
		errs = append(errs, s.stops[i]())
	}
	for _, cat := range s.catalogs {
		errs = append(errs, cat.Close())
	}
	// Untraced, every hop uses the default transport, as the daemons do.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

// serve hosts h on an ephemeral loopback port. The stopper shuts the
// server down and returns once its accept loop has ended.
func (s *remoteSubject) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(l) // always returns ErrServerClosed after Shutdown
	}()
	s.stops = append(s.stops, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-done
		return err
	})
	return "http://" + l.Addr().String(), nil
}

// --- standing the four depths up ------------------------------------------

// world is what every stand-up starts from.
type world struct {
	cfg *config
	tr  *tracer // nil when this run is not traced
	dir string  // scratch directory for segment files
}

func (w *world) traffic() (*dataset.Catalog, error) {
	return datagen.Traffic(w.cfg.rows, w.cfg.seed)
}

// writeSegments generates the traffic catalog and writes it as a
// segment file.
func (w *world) writeSegments() (string, error) {
	mem, err := w.traffic()
	if err != nil {
		return "", err
	}
	path := filepath.Join(w.dir, "traffic.visdb")
	_, err = dataset.WriteCatalogFile(path, mem)
	return path, err
}

func openSegments(path string, cacheBytes int64) (*dataset.Catalog, error) {
	return dataset.OpenCatalogFile(path, dataset.OpenOptions{CacheBytes: cacheBytes})
}

const (
	coldSegCacheBytes = 2 << 20  // the data is 32 B/row: 6.4 MB at 200k rows does not fit
	coldSharedBytes   = 32 << 20 // about 20 leaf vectors at 200k rows: evicts
)

func standUp(w *world) (subject, error) {
	switch w.cfg.workload {
	case "drag_inproc":
		cat, err := w.traffic()
		if err != nil {
			return nil, err
		}
		return newLocalSubject(cat, 0, w.cfg.clients), nil
	case "cold_disk":
		path, err := w.writeSegments()
		if err != nil {
			return nil, err
		}
		cat, err := openSegments(path, coldSegCacheBytes)
		if err != nil {
			return nil, err
		}
		return newLocalSubject(cat, coldSharedBytes, w.cfg.clients), nil
	case "drag_http":
		return standUpHTTP(w)
	case "drag_fleet":
		return standUpFleet(w)
	}
	return nil, fmt.Errorf("unknown workload %q", w.cfg.workload)
}

// tracedClient returns an http.Client whose transport records name
// spans, or nil (the seam's own default) when the run is not traced.
func (w *world) tracedClient(name string, timeout time.Duration, pick func(*http.Request) *stepTrace) *http.Client {
	if w.tr == nil {
		return nil
	}
	return &http.Client{Timeout: timeout,
		Transport: &tracedTransport{name: name, next: http.DefaultTransport, pick: pick}}
}

// newClient is client.New for client c, traced when the run is.
func (w *world) newClient(url string, c int) *client.Client {
	cl := client.New(url)
	if hc := w.tracedClient("client.rt", 0, func(*http.Request) *stepTrace { return w.tr.current(c) }); hc != nil {
		cl.HTTP = hc
	}
	return cl
}

// handler wraps a daemon's handler when the run is traced.
func (w *world) handler(h http.Handler, name func(*http.Request) string) http.Handler {
	if w.tr == nil {
		return h
	}
	return &tracedHandler{t: w.tr, next: h, name: name}
}

func newRemoteSubject(clients int) *remoteSubject {
	return &remoteSubject{sessions: make([]remoteSession, clients), recalcs: make([]int, clients)}
}

// standUpHTTP is one visdbd serving the in-memory catalog; both clients
// use the same catalog and so share its cache, as in drag_inproc.
func standUpHTTP(w *world) (s *remoteSubject, err error) {
	s = newRemoteSubject(w.cfg.clients)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cat, err := w.traffic()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Catalogs: []server.CatalogConfig{{Name: "traffic", Catalog: cat}}})
	if err != nil {
		return nil, err
	}
	url, err := s.serve(w.handler(srv, serverSpanName))
	if err != nil {
		return nil, err
	}
	s.members = []*client.Client{client.New(url)}
	clients := make([]*client.Client, w.cfg.clients)
	for c := range clients {
		clients[c] = w.newClient(url, c)
	}
	s.create = func(ctx context.Context, c int) (remoteSession, client.Summary, error) {
		return clients[c].NewSession(ctx, "traffic", dragQuery(c), client.Options{})
	}
	return s, nil
}

const fleetMembers = 3

// fleetCatalogs picks one catalog name per client such that no two are
// owned by the same member. Placement is a pure function of the shard
// count and the member names, so a throwaway router with the same
// names answers the question before any daemon exists.
func fleetCatalogs(clients int, members []router.Member) ([]string, error) {
	probe, err := router.New(router.Config{Members: members})
	if err != nil {
		return nil, err
	}
	placement := probe.Placement()
	var names []string
	taken := make(map[string]bool)
	for i := 0; len(names) < clients && i < 64; i++ {
		name := fmt.Sprintf("r%d", i)
		owner := placement[server.ShardOf(name, len(placement))]
		if !taken[owner] {
			taken[owner] = true
			names = append(names, name)
		}
	}
	if len(names) < clients {
		return nil, fmt.Errorf("no placement gives %d clients distinct members out of %d", clients, len(members))
	}
	return names, nil
}

// standUpFleet is router → three members → one kv store. Every member
// serves a disk-backed replica of every catalog; each client's catalog
// is owned by a different member, so whatever one client's work saves
// the other has to come through kv.
func standUpFleet(w *world) (s *remoteSubject, err error) {
	if w.cfg.clients > fleetMembers {
		return nil, fmt.Errorf("drag_fleet gives every client its own member: at most %d clients", fleetMembers)
	}
	s = newRemoteSubject(w.cfg.clients)
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	path, err := w.writeSegments()
	if err != nil {
		return nil, err
	}
	s.kvStore = kv.NewServer(0, 0)
	kvURL, err := s.serve(w.handler(s.kvStore, func(*http.Request) string { return "kv.server" }))
	if err != nil {
		return nil, err
	}
	members := make([]router.Member, fleetMembers)
	for m := range members {
		members[m].Name = fmt.Sprintf("m%d", m)
		members[m].URL = "http://placeholder-" + members[m].Name
	}
	names, err := fleetCatalogs(w.cfg.clients, members)
	if err != nil {
		return nil, err
	}
	for m := range members {
		var cfgs []server.CatalogConfig
		for c, name := range names {
			cat, err := openSegments(path, 0)
			if err != nil {
				return nil, err
			}
			s.catalogs = append(s.catalogs, cat)
			kvc := kv.NewClient(kvURL)
			var backend core.SharedBackend = kvc
			if hc := w.tracedClient("kv.rt", kv.DefaultTimeout, func(*http.Request) *stepTrace { return w.tr.current(c) }); hc != nil {
				kvc.HTTP = hc
				backend = &tracedBackend{t: w.tr, client: c, next: kvc}
			}
			cfgs = append(cfgs, server.CatalogConfig{Name: name, Catalog: cat,
				Shared: core.SharedOptions{Backend: backend}})
		}
		srv, err := server.New(server.Config{Catalogs: cfgs})
		if err != nil {
			return nil, err
		}
		url, err := s.serve(w.handler(srv, serverSpanName))
		if err != nil {
			return nil, err
		}
		members[m].URL = url
		s.members = append(s.members, client.New(url))
	}
	// 30 s is the timeout router.New gives the client it builds itself.
	rt, err := router.New(router.Config{Members: members, KV: kvURL,
		HTTP: w.tracedClient("router.rt", 30*time.Second, stepFromContext)})
	if err != nil {
		return nil, err
	}
	owners := make(map[string]string)
	placement := rt.Placement()
	for _, name := range names {
		owner := placement[server.ShardOf(name, len(placement))]
		if other, dup := owners[owner]; dup {
			return nil, fmt.Errorf("catalogs %s and %s are both owned by %s", other, name, owner)
		}
		owners[owner] = name
	}
	rtURL, err := s.serve(w.handler(rt, func(*http.Request) string { return "router" }))
	if err != nil {
		return nil, err
	}
	clients := make([]*client.Client, w.cfg.clients)
	for c := range clients {
		clients[c] = w.newClient(rtURL, c)
	}
	s.create = func(ctx context.Context, c int) (remoteSession, client.Summary, error) {
		return client.NewFleetSession(ctx, clients[c:c+1], names[c], dragQuery(c), client.FleetOptions{})
	}
	return s, nil
}
