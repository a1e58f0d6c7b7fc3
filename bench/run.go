package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/wire"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	rows     int
	clients  int
	warmup   int           // untimed steps per client before the timed phase
	verify   int           // leading warm-up steps checked against the oracle
	setups   int           // stand-ups whose median is setup_s
	steps    int           // timed steps per client; 0 = until seconds run out
	seconds  time.Duration // timed phase length; 0 = until steps run out
	traced   bool
	traceOut string
	workdir  string
}

var workloads = []string{"drag_inproc", "drag_http", "drag_fleet", "cold_disk"}

// tracedChunk is how many consecutive steps of a traced run share a
// tracing state: chunks alternate untraced, traced, untraced, … so both
// kinds see the same stretch of the script and the same cache state. A
// chunk is a whole number of script periods (20 drag steps, five
// cold_disk visits of 3), so every chunk holds the same mix of ops and
// trace.overhead_ratio compares like with like.
func tracedChunk(period int) int { return period * max(1, 15/period) }

// checkpointEvery is the spacing of the rolling-digest checkpoints.
const checkpointEvery = 100

// sample is one timed step.
type sample struct {
	kind    opKind
	total   time.Duration // mutation + read-back: what the analyst waits for
	mutate  time.Duration
	tm      wire.Timings
	recalcs int
	traced  bool
	failed  bool
}

// clientRun is what one client did in the timed phase.
type clientRun struct {
	samples     []sample
	digest      digest   // rolling over every correct timed step
	checkpoints []digest // digest after every checkpointEvery steps
	errs        []error
}

// script generates client c's ops, warm-up plus at most n timed steps
// plus one more period, and the script's period: the number of steps
// after which the same kinds of op come round again.
func script(cfg *config, c, n int) (ops []op, period int, err error) {
	if cfg.workload == "cold_disk" {
		return coldScript(cfg.seed, c, n+coldStepsPerVisit), coldStepsPerVisit, nil
	}
	// Two cycles: a cycle has five range drags and every other drag
	// revisits a bookmark, so revisits and fresh ranges split 3:2 in one
	// cycle and 2:3 in the next.
	for _, g := range dragCycle {
		period += 2 * g.n
	}
	ops, err = dragScript(cfg.seed, c, n+period)
	return ops, period, err
}

// oracle is the correctness reference: a mirror session per client
// tracks the query the script has built so far (it never recalculates
// on its own), and every check runs that query on a fresh engine with
// FullSort over the in-memory catalog.
type oracle struct {
	cat     *dataset.Catalog
	mirrors []*session.Session
}

func (o *oracle) open(c int, sql string) error {
	m, err := session.NewSQL(o.cat, nil, core.Options{}, sql)
	if err != nil {
		return err
	}
	o.mirrors[c] = m
	return m.SetAutoRecalc(false)
}

func (o *oracle) apply(c int, op op) error {
	m := o.mirrors[c]
	switch op.Kind {
	case opCreate:
		return o.open(c, op.SQL)
	case opRange:
		return m.SetRangeByAttr(op.Attr, op.Lo, op.Hi)
	case opWeight:
		return m.SetWeight(queryPreds(m)[op.Pred], op.Weight)
	}
	return m.Undo()
}

// check compares a step's read-back with a fresh FullSort run, bit for
// bit (displayed count, items, distances).
func (o *oracle) check(c int, got digest) error {
	fresh, err := core.New(o.cat, nil, core.Options{FullSort: true}).Run(o.mirrors[c].Query())
	if err != nil {
		return err
	}
	if want := hashResult(fresh); got != want {
		return fmt.Errorf("read-back digest %016x, fresh FullSort engine gives %016x", got, want)
	}
	return nil
}

// runResult is everything one run of one workload measured.
type runResult struct {
	cfg       *config
	setups    []time.Duration
	clients   []clientRun
	wall      time.Duration // timed phase
	cpu       time.Duration // process user+sys over the timed phase
	liveHeap  uint64        // HeapAlloc after a forced GC, before teardown
	before    counters
	after     counters
	creates   []time.Duration // session creations during set-up
	chunk     int             // tracedChunk of this workload's script
	verifyErr error
	tracer    *tracer
	probe     datasetProbe
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// eachClient runs fn for every client at once and waits for all.
func eachClient(n int, fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// runWorkload stands the subject up cfg.setups times (keeping the last),
// warms it up, checks it against the oracle, runs the timed phase and
// tears it down.
func runWorkload(cfg *config) (*runResult, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "visdb-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &runResult{cfg: cfg, clients: make([]clientRun, cfg.clients)}
	if cfg.traced {
		res.tracer = newTracer(cfg.clients)
	}
	var oracleCat *dataset.Catalog
	err = res.tracer.setup("datagen.traffic", &res.probe.datagen, func() (err error) {
		oracleCat, err = datagen.Traffic(cfg.rows, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := res.probe.run(res.tracer, filepath.Join(dir, "probe.visdb"), oracleCat); err != nil {
			return nil, err
		}
	}

	// The timed phase needs at most this many ops per client; a run
	// bounded by time gets a generous ceiling (no workload does a step
	// in under a millisecond).
	timed := cfg.steps
	if timed == 0 {
		timed = int(cfg.seconds / time.Millisecond)
	}
	scripts := make([][]op, cfg.clients)
	var period int
	for c := range scripts {
		if scripts[c], period, err = script(cfg, c, cfg.warmup+timed); err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	var sub subject
	for rep := 0; rep < cfg.setups; rep++ {
		if sub != nil {
			if err := sub.close(); err != nil {
				return nil, fmt.Errorf("tear-down between set-ups: %w", err)
			}
		}
		var orc *oracle
		if rep == 0 {
			orc = &oracle{cat: oracleCat, mirrors: make([]*session.Session, cfg.clients)}
		}
		w := &world{cfg: cfg, tr: res.tracer, dir: dir}
		var took time.Duration
		if sub, took, err = setUp(ctx, w, scripts, orc, res); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, took)
	}
	defer func() {
		if sub != nil {
			sub.close()
		}
	}()

	runtime.GC()
	if res.before, err = sub.counters(ctx); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	res.chunk = tracedChunk(period)
	eachClient(cfg.clients, func(c int) {
		timedPhase(ctx, cfg, sub, c, scripts[c][cfg.warmup:cfg.warmup+timed], res.chunk, start, res.tracer, &res.clients[c])
	})
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if res.after, err = sub.counters(ctx); err != nil {
		return nil, err
	}
	// Every client finishes the script period it is in, untimed, so that
	// the live heap is read with every session at the same point of its
	// script: in between a session holds more or fewer leaf vectors, which
	// on cold_disk moved the reading by a tenth from run to run.
	eachClient(cfg.clients, func(c int) {
		done := cfg.warmup + len(res.clients[c].samples)
		for _, o := range scripts[c][done : (done+period-1)/period*period] {
			if _, err := sub.step(ctx, c, o, nil); err != nil {
				return // the failed steps of the timed phase already say why
			}
		}
	})
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.liveHeap = ms.HeapAlloc

	err = sub.close()
	sub = nil
	if err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	if res.tracer != nil {
		res.tracer.link()
		if cfg.traceOut != "" {
			if err := res.tracer.writeTo(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// setUp stands the subject up, opens every client's session and runs
// the warm-up steps, all clients at once. With an oracle, the first
// cfg.verify steps of each client are checked in lockstep; a mismatch
// lands in res.verifyErr and the run goes on to report correct=false.
// The returned duration is the set-up as the system paid for it: the
// stand-up plus the slowest client's calls into the subject, oracle
// time excluded.
func setUp(ctx context.Context, w *world, scripts [][]op, orc *oracle, res *runResult) (subject, time.Duration, error) {
	cfg := w.cfg
	t0 := time.Now()
	sub, err := standUp(w)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)

	busy := make([]time.Duration, cfg.clients)
	creates := make([]time.Duration, cfg.clients)
	fatal := make([]error, cfg.clients)
	mismatch := make([]error, cfg.clients)
	warm := func(c int) error {
		// verify runs one oracle action for the step just taken; after
		// the first mismatch the client's later steps are not checked.
		verifying := orc != nil && cfg.verify > 0
		verify := func(what string, act func() error) {
			if !verifying {
				return
			}
			if err := act(); err != nil {
				mismatch[c] = fmt.Errorf("client %d, %s: %w", c, what, err)
				verifying = false
			}
		}
		// cold_disk opens its sessions as script steps.
		if scripts[c][0].Kind != opCreate {
			t := time.Now()
			out, err := sub.open(ctx, c, nil)
			creates[c] = time.Since(t)
			busy[c] += creates[c]
			if err != nil {
				return fmt.Errorf("client %d, open: %w", c, err)
			}
			verify("initial picture", func() error {
				if err := orc.open(c, dragQuery(c)); err != nil {
					return err
				}
				return orc.check(c, out.hash)
			})
		}
		for i, o := range scripts[c][:cfg.warmup] {
			t := time.Now()
			out, err := sub.step(ctx, c, o, nil)
			busy[c] += time.Since(t)
			if err != nil {
				return fmt.Errorf("client %d, warm-up step %d (%v): %w", c, i, o, err)
			}
			if i < cfg.verify {
				verify(fmt.Sprintf("step %d (%v)", i, o), func() error {
					if err := orc.apply(c, o); err != nil {
						return err
					}
					return orc.check(c, out.hash)
				})
			}
		}
		return nil
	}
	eachClient(cfg.clients, func(c int) { fatal[c] = warm(c) })
	if err := errors.Join(fatal...); err != nil {
		sub.close()
		return nil, 0, err
	}
	if orc != nil {
		res.creates = creates
		res.verifyErr = errors.Join(mismatch...)
	}
	return sub, took + slices.Max(busy), nil
}

// timedPhase is one closed-loop client: the next op goes out when the
// previous picture has been read back.
func timedPhase(ctx context.Context, cfg *config, sub subject, c int, ops []op, chunk int, start time.Time, tr *tracer, run *clientRun) {
	run.digest = digestSeed
	run.samples = make([]sample, 0, min(len(ops), 1<<16))
	for i, o := range ops {
		if cfg.seconds > 0 && time.Since(start) >= cfg.seconds {
			break
		}
		var st *stepTrace
		if tr != nil && (i/chunk)%2 == 1 {
			st = tr.begin(c, i)
		}
		t0 := time.Now()
		sp := st.start()
		out, err := sub.step(ctx, c, o, st)
		st.end("step", sp)
		total := time.Since(t0)
		st.finish()
		s := sample{kind: o.Kind, total: total, mutate: out.mutate, tm: out.tm,
			recalcs: out.recalcs, traced: st != nil, failed: err != nil}
		run.samples = append(run.samples, s)
		if err != nil {
			if len(run.errs) < 5 {
				run.errs = append(run.errs, fmt.Errorf("client %d step %d (%v): %w", c, i, o, err))
			}
			continue
		}
		run.digest = run.digest.word(uint64(out.hash))
		if (i+1)%checkpointEvery == 0 {
			run.checkpoints = append(run.checkpoints, run.digest)
		}
	}
}

// datasetProbe measures the storage layer on its own in a traced run's
// set-up, the same way for every workload: write the catalog as a
// segment file, open it with cold_disk's 2 MiB cache, and read every
// column once.
type datasetProbe struct {
	datagen, write, open, coldScan time.Duration
	fileBytes                      int64
}

func (p *datasetProbe) run(tr *tracer, path string, mem *dataset.Catalog) error {
	err := tr.setup("dataset.write", &p.write, func() error {
		_, err := dataset.WriteCatalogFile(path, mem)
		return err
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.fileBytes = fi.Size()
	var cat *dataset.Catalog
	err = tr.setup("dataset.open", &p.open, func() (err error) {
		cat, err = openSegments(path, coldSegCacheBytes)
		return err
	})
	if err != nil {
		return err
	}
	defer cat.Close()
	return tr.setup("dataset.cold_scan", &p.coldScan, func() error {
		for _, name := range cat.TableNames() {
			t, err := cat.Table(name)
			if err != nil {
				return err
			}
			for _, f := range t.Schema() {
				if _, err := t.FloatsOf(f.Name); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func queryPreds(s *session.Session) []query.Expr { return query.Predicates(s.Query().Where) }
