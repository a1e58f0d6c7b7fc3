package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/wire"
)

// This file implements the machine-readable benchmark mode:
//
//	visdbbench -json BENCH_6.json [-json-rows N] [-floors] [-disk]
//
// It runs the interactive-loop workloads (cold engine runs vs warm
// cached reruns, the slider drag, the concurrent multi-session
// traffic) over the deterministic traffic catalog and writes one JSON
// document with throughput, per-stage timings and the cache/prune
// counters — so the perf trajectory across PRs is tracked as data in
// the CI artifacts instead of prose in commit messages.
//
// -disk serves the catalog from an on-disk segment file through a
// deliberately small decoded-segment cache instead of from memory, so
// the report tracks the file-backed serving path (results are
// bit-identical; only where the bytes live changes).
//
// -floors additionally enforces the regression floors: the
// rank-before-scale block pruning must actually fire on the warm
// reweight workload (prune rate > 0 — a silent deactivation fails
// loud), warm reruns must beat cold runs, and the interior
// normalization sketch must carry the steady-state warm rerun
// (sketch hits > 0, rescans below one full pass, and the evaluate
// stage measurably cheaper than the -no-sketch baseline).

// reweightReport is one cold-vs-warm weight-slider workload.
type reweightReport struct {
	ColdMS  float64 `json:"cold_ms"`
	WarmMS  float64 `json:"warm_ms"`
	Speedup float64 `json:"speedup"`
	// Warm holds the steady-state warm rerun's stage timings and
	// counters (cache hits, pruned chunks, interior sketch hits and
	// rescans) in the wire schema.
	Warm wire.Timings `json:"warm"`
	// WarmSketchlessMS and WarmSketchless repeat the warm workload with
	// Options.NoInteriorSketch — the ablation baseline the sketch floors
	// compare against (its evaluate stage re-runs every interior
	// combine; the killed full-array pass, measured).
	WarmSketchlessMS float64      `json:"warm_sketchless_ms"`
	WarmSketchless   wire.Timings `json:"warm_sketchless"`
}

// coldScanReport is the cold file-backed scan workload (-disk only): a
// range predicate on the clustered attribute t, each run against a
// freshly opened catalog (empty decoded-segment cache, empty run
// cache), with the segment-stats pushdown on versus off.
type coldScanReport struct {
	// StatsOnMS/StatsOffMS are the median distances-stage times of the
	// cold runs with the footer-stats pushdown enabled vs disabled
	// (Options.NoSegmentStats) — the stage the pushdown accelerates,
	// isolated from the shared evaluate/rank cost.
	StatsOnMS  float64 `json:"stats_on_ms"`
	StatsOffMS float64 `json:"stats_off_ms"`
	Speedup    float64 `json:"speedup"`
	// StatsOn holds a representative stats-on cold run's full timings;
	// its SegsSkipped/Segs counters attribute the pushdown.
	StatsOn wire.Timings `json:"stats_on"`
	// FileBytes is the v3 (compressed, per-segment stats) catalog file
	// size; FileBytesV2 the same catalog written in format v2.
	FileBytes   int64 `json:"file_bytes"`
	FileBytesV2 int64 `json:"file_bytes_v2"`
}

type concurrentReport struct {
	Sessions      int     `json:"sessions"`
	Steps         int     `json:"steps"`
	Recalcs       int     `json:"recalcs"`
	RecalcsPerSec float64 `json:"recalcs_per_sec"`
	// StepP50MS/StepP99MS are per-interaction-step latency percentiles
	// across every session's applied edits — the paper's "response time
	// per slider movement", measured under contention.
	StepP50MS     float64          `json:"step_p50_ms"`
	StepP99MS     float64          `json:"step_p99_ms"`
	SharedHitRate float64          `json:"shared_hit_rate"`
	SharedStats   wire.SharedStats `json:"shared_stats"`
}

// benchReport is the BENCH_N.json schema.
type benchReport struct {
	Schema int   `json:"schema"`
	Rows   int   `json:"rows"`
	Seed   int64 `json:"seed"`
	// DiskBacked records whether the catalog was served from an on-disk
	// segment file (-disk); Epoch is its content-hash epoch (0 in
	// memory).
	DiskBacked   bool             `json:"disk_backed"`
	Epoch        uint64           `json:"epoch,omitempty"`
	Reweight     reweightReport   `json:"reweight"`
	SliderDragMS float64          `json:"slider_drag_ms"`
	SliderDrag   wire.Timings     `json:"slider_drag"`
	Concurrent   concurrentReport `json:"concurrent"`
	// ColdScan is present only for -disk reports.
	ColdScan *coldScanReport `json:"cold_scan,omitempty"`
	// Fleet is present only for -fleet reports: the routed three-member
	// fleet with the networked kv tier (see fleet.go).
	Fleet *fleetBenchReport `json:"fleet,omitempty"`
}

// medianMS converts a sample of durations to its median in
// milliseconds (medians shrug off one-off scheduler hiccups that would
// make floors flaky on shared CI runners).
func medianMS(samples []time.Duration) float64 {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[len(samples)/2].Nanoseconds()) / 1e6
}

// runJSONBench runs the workloads and writes the report to path.
// floors enforces the regression floors after writing (the report is
// useful even when it fails them). disk round-trips the catalog
// through a segment file first and serves it from there.
func runJSONBench(path string, rows int, seed int64, floors, disk, fleet bool) error {
	cat, err := datagen.Traffic(rows, seed)
	if err != nil {
		return err
	}
	rep := benchReport{Schema: 5, Rows: rows, Seed: seed, DiskBacked: disk}
	var segPath string
	if disk {
		segPath = filepath.Join(os.TempDir(), fmt.Sprintf("visdbbench-%d-%d.visdb", rows, seed))
		epoch, err := dataset.WriteCatalogFile(segPath, cat)
		if err != nil {
			return err
		}
		defer os.Remove(segPath)
		// An 8 MiB decoded-segment cache keeps the file-backed catalog
		// well under the in-memory footprint (3 float columns at 1e6
		// rows are 24 MiB), so the bench actually exercises paging.
		fcat, err := dataset.OpenCatalogFile(segPath, dataset.OpenOptions{CacheBytes: 8 << 20})
		if err != nil {
			return err
		}
		defer fcat.Close()
		cat = fcat
		rep.Epoch = epoch
	}
	opt := core.Options{GridW: 128, GridH: 128}
	sql := datagen.TrafficQueries()[2] // the OR query: the geometric-root hot path

	// --- Reweight: cold engine runs vs warm session reruns ----------
	q, err := query.Parse(sql)
	if err != nil {
		return err
	}
	eng := core.New(cat, nil, opt)
	pred := query.Predicates(q.Where)[0]
	var cold []time.Duration
	for i := 0; i < 5; i++ {
		pred.SetWeight(float64(2 + i%2))
		t0 := time.Now()
		if _, err := eng.Run(q); err != nil {
			return err
		}
		cold = append(cold, time.Since(t0))
	}
	s, err := session.NewSQL(cat, nil, opt, sql)
	if err != nil {
		return err
	}
	spred := query.Predicates(s.Query().Where)[0]
	var warm []time.Duration
	var warmTM core.StageTimings
	for i := 0; i < 12; i++ {
		t0 := time.Now()
		if err := s.SetWeight(spred, float64(2+i%2)); err != nil {
			return err
		}
		d := time.Since(t0)
		if i >= 2 { // the first reruns pay the one-time index builds
			warm = append(warm, d)
			warmTM = s.Result().Timings
		}
	}
	rep.Reweight = reweightReport{
		ColdMS: medianMS(cold),
		WarmMS: medianMS(warm),
		Warm:   wire.TimingsOf(warmTM),
	}
	if rep.Reweight.WarmMS > 0 {
		rep.Reweight.Speedup = rep.Reweight.ColdMS / rep.Reweight.WarmMS
	}

	// The same warm workload with the interior sketch disabled — the
	// ablation baseline whose evaluate stage re-runs every interior
	// combine pass on each drag.
	noSketch := opt
	noSketch.NoInteriorSketch = true
	sn, err := session.NewSQL(cat, nil, noSketch, sql)
	if err != nil {
		return err
	}
	snPred := query.Predicates(sn.Query().Where)[0]
	var warmNS []time.Duration
	var warmNSTM core.StageTimings
	for i := 0; i < 12; i++ {
		t0 := time.Now()
		if err := sn.SetWeight(snPred, float64(2+i%2)); err != nil {
			return err
		}
		d := time.Since(t0)
		if i >= 2 {
			warmNS = append(warmNS, d)
			warmNSTM = sn.Result().Timings
		}
	}
	rep.Reweight.WarmSketchlessMS = medianMS(warmNS)
	rep.Reweight.WarmSketchless = wire.TimingsOf(warmNSTM)

	// --- Slider drag: range edits recompute exactly one leaf --------
	c, err := s.FindCond("c")
	if err != nil {
		return err
	}
	var drags []time.Duration
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		if err := s.SetRange(c, float64(20+i%5), float64(30+i%5)); err != nil {
			return err
		}
		drags = append(drags, time.Since(t0))
	}
	rep.SliderDragMS = medianMS(drags)
	rep.SliderDrag = wire.TimingsOf(s.Result().Timings)

	// --- Concurrent traffic over the shared tier --------------------
	const sessions, steps = 4, 20
	shared := core.NewSharedCache(0, 0)
	queries := datagen.TrafficQueries()
	recalcs := make([]int, sessions)
	stepTimes := make([][]time.Duration, sessions)
	errs := make([]error, sessions)
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cs, err := session.NewSQLShared(cat, nil, opt, queries[g%len(queries)], shared)
			if err != nil {
				errs[g] = err
				return
			}
			pred := query.Predicates(cs.Query().Where)[0]
			for step := 0; step < steps; step++ {
				st := time.Now()
				if err := cs.SetWeight(pred, []float64{0.5, 1, 2, 3}[step%4]); err != nil {
					errs[g] = err
					return
				}
				stepTimes[g] = append(stepTimes[g], time.Since(st))
			}
			recalcs[g] = cs.Recalcs
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	total := 0
	var allSteps []time.Duration
	for g := range recalcs {
		if errs[g] != nil {
			return errs[g]
		}
		total += recalcs[g]
		allSteps = append(allSteps, stepTimes[g]...)
	}
	st := shared.Stats()
	rep.Concurrent = concurrentReport{
		Sessions:      sessions,
		Steps:         steps,
		Recalcs:       total,
		RecalcsPerSec: float64(total) / elapsed.Seconds(),
		StepP50MS:     percentileMS(allSteps, 50),
		StepP99MS:     percentileMS(allSteps, 99),
		SharedStats:   st,
	}
	if st.Hits+st.Misses > 0 {
		rep.Concurrent.SharedHitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}

	// --- Cold scans: the segment-stats pushdown (-disk only) --------
	if disk {
		cs, err := runColdScan(segPath, rows, seed)
		if err != nil {
			return err
		}
		rep.ColdScan = cs
	}

	// --- Fleet: routed members over the networked kv tier (-fleet) --
	if fleet {
		fb, err := runFleetBench(rows, seed)
		if err != nil {
			return err
		}
		rep.Fleet = fb
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: reweight cold %.1fms / warm %.1fms (%.2fx), pruned %d/%d chunks, sketch hits %d rescans %d (sketchless warm %.1fms), %0.1f recalcs/s concurrent\n",
		path, rep.Reweight.ColdMS, rep.Reweight.WarmMS, rep.Reweight.Speedup,
		rep.Reweight.Warm.Pruned, rep.Reweight.Warm.Chunks,
		rep.Reweight.Warm.SketchHits, rep.Reweight.Warm.SketchRescans,
		rep.Reweight.WarmSketchlessMS, rep.Concurrent.RecalcsPerSec)
	if cs := rep.ColdScan; cs != nil {
		fmt.Printf("cold scan: stats on %.2fms / off %.2fms (%.2fx), skipped %d/%d segments, file %d B vs v2 %d B\n",
			cs.StatsOnMS, cs.StatsOffMS, cs.Speedup,
			cs.StatsOn.SegsSkipped, cs.StatsOn.Segs, cs.FileBytes, cs.FileBytesV2)
	}
	if fb := rep.Fleet; fb != nil {
		fmt.Printf("fleet: %d members, %d sessions, %.1f recalcs/s, step p50 %.1fms p99 %.1fms, shared-hit rate %.3f (%d remote hits), kv %d entries\n",
			fb.Members, fb.Sessions, fb.RecalcsPerSec, fb.StepP50MS, fb.StepP99MS,
			fb.SharedHitRate, fb.Shared.RemoteHits, fb.KV.Entries)
		fmt.Printf("node kill: victim %s, %d sessions x %d steps, %d recoveries, %d errors\n",
			fb.NodeKill.Victim, fb.NodeKill.Sessions, fb.NodeKill.Steps,
			fb.NodeKill.Recoveries, fb.NodeKill.Errors)
	}
	if floors {
		return checkFloors(rep)
	}
	return nil
}

// runColdScan measures cold file-backed range scans on the clustered
// attribute t, pushdown on vs off. Every run opens the catalog fresh
// (empty decoded-segment cache) and uses a fresh run cache, so the
// distances stage always pays the from-disk cost the pushdown skips.
func runColdScan(segPath string, rows int, seed int64) (*coldScanReport, error) {
	mem, err := datagen.Traffic(rows, seed)
	if err != nil {
		return nil, err
	}
	v2Path := segPath + ".v2"
	if _, err := dataset.WriteCatalogFileV2(v2Path, mem); err != nil {
		return nil, err
	}
	defer os.Remove(v2Path)
	fi3, err := os.Stat(segPath)
	if err != nil {
		return nil, err
	}
	fi2, err := os.Stat(v2Path)
	if err != nil {
		return nil, err
	}
	// The interval covers the middle of t's domain, so most interior
	// segments are provably all-in-range while the uniform a/b/c
	// columns never qualify — the pushdown's intended shape.
	q, err := query.Parse(`SELECT a FROM S WHERE t BETWEEN 20 AND 80`)
	if err != nil {
		return nil, err
	}
	run := func(noStats bool) (core.StageTimings, error) {
		fcat, err := dataset.OpenCatalogFile(segPath, dataset.OpenOptions{CacheBytes: 8 << 20})
		if err != nil {
			return core.StageTimings{}, err
		}
		defer fcat.Close()
		eng := core.New(fcat, nil, core.Options{GridW: 128, GridH: 128, NoSegmentStats: noStats})
		res, err := eng.RunCached(q, core.NewRunCache())
		if err != nil {
			return core.StageTimings{}, err
		}
		return res.Timings, nil
	}
	var on, off []time.Duration
	var onTM core.StageTimings
	for i := 0; i < 5; i++ {
		tm, err := run(false)
		if err != nil {
			return nil, err
		}
		on = append(on, tm.Distances)
		onTM = tm
		if tm, err = run(true); err != nil {
			return nil, err
		}
		off = append(off, tm.Distances)
	}
	cs := &coldScanReport{
		StatsOnMS:   medianMS(on),
		StatsOffMS:  medianMS(off),
		StatsOn:     wire.TimingsOf(onTM),
		FileBytes:   fi3.Size(),
		FileBytesV2: fi2.Size(),
	}
	if cs.StatsOnMS > 0 {
		cs.Speedup = cs.StatsOffMS / cs.StatsOnMS
	}
	return cs, nil
}

// checkFloors enforces the hardcoded regression floors on a report.
func checkFloors(rep benchReport) error {
	var fails []string
	// The rank-before-scale block pruning must fire on warm reweight
	// reruns: a zero prune count means the bounds, the leaf chunk-stats
	// promotion, or the threshold carry-over silently deactivated.
	if rep.Reweight.Warm.Pruned <= 0 {
		fails = append(fails, "warm reweight pruned 0 chunks (block pruning deactivated)")
	}
	if rep.Reweight.Warm.Chunks <= 0 {
		fails = append(fails, "warm reweight reports no evaluator chunks")
	}
	// Warm reruns must beat cold runs (the whole point of the
	// incremental loop); medians keep this robust on noisy runners.
	if !(rep.Reweight.WarmMS < rep.Reweight.ColdMS) {
		fails = append(fails, fmt.Sprintf("warm rerun (%.1fms) not faster than cold (%.1fms)",
			rep.Reweight.WarmMS, rep.Reweight.ColdMS))
	}
	// Warm reruns serve every leaf from the cache.
	if rep.Reweight.Warm.CacheMisses != 0 || rep.Reweight.Warm.CacheHits == 0 {
		fails = append(fails, fmt.Sprintf("warm reweight cache attribution off: hits=%d misses=%d",
			rep.Reweight.Warm.CacheHits, rep.Reweight.Warm.CacheMisses))
	}
	// The interior normalization sketch must carry the steady-state warm
	// rerun: entries hit, the rescan attribution stays below one full
	// pass over the evaluator chunks, and the evaluate stage beats the
	// sketchless ablation baseline by at least 2x (the measured margin
	// is ~40x — this floor only catches silent deactivation, not noise).
	if rep.Reweight.Warm.SketchHits <= 0 {
		fails = append(fails, "warm reweight took no interior sketch hits (sketch deactivated)")
	}
	if rep.Reweight.Warm.SketchRescans >= rep.Reweight.Warm.Chunks {
		fails = append(fails, fmt.Sprintf("warm reweight rescanned %d of %d chunks (no better than a full pass)",
			rep.Reweight.Warm.SketchRescans, rep.Reweight.Warm.Chunks))
	}
	if rep.Reweight.WarmSketchless.SketchHits != 0 {
		fails = append(fails, "sketchless baseline reported sketch hits (ablation gate broken)")
	}
	if rep.Reweight.WarmSketchless.EvaluateNS < 2*rep.Reweight.Warm.EvaluateNS {
		fails = append(fails, fmt.Sprintf("sketch evaluate (%dns) not 2x under the sketchless baseline (%dns)",
			rep.Reweight.Warm.EvaluateNS, rep.Reweight.WarmSketchless.EvaluateNS))
	}
	// Cross-session sharing must happen in the concurrent workload, and
	// the step latency percentiles must be populated and ordered.
	if rep.Concurrent.SharedHitRate <= 0 {
		fails = append(fails, "concurrent sessions shared nothing")
	}
	if rep.Concurrent.StepP50MS <= 0 || rep.Concurrent.StepP99MS < rep.Concurrent.StepP50MS {
		fails = append(fails, fmt.Sprintf("concurrent step percentiles degenerate: p50=%.3fms p99=%.3fms",
			rep.Concurrent.StepP50MS, rep.Concurrent.StepP99MS))
	}
	if math.IsNaN(rep.Reweight.Speedup) {
		fails = append(fails, "speedup is NaN")
	}
	// The segment-stats pushdown floors (-disk reports): the footer
	// stats must actually skip decodes on the clustered cold scan, the
	// skipping must pay off in the distances stage, and the v3 segment
	// codecs must beat the v2 raw layout on file size.
	if cs := rep.ColdScan; cs != nil {
		if cs.StatsOn.SegsSkipped <= 0 {
			fails = append(fails, "cold scan skipped no segments (stats pushdown deactivated)")
		}
		if cs.StatsOn.Segs <= 0 {
			fails = append(fails, "cold scan reports no segments considered")
		}
		if !(cs.StatsOnMS < cs.StatsOffMS) {
			fails = append(fails, fmt.Sprintf("cold scan with stats (%.2fms) not faster than without (%.2fms)",
				cs.StatsOnMS, cs.StatsOffMS))
		}
		if cs.FileBytes >= cs.FileBytesV2 {
			fails = append(fails, fmt.Sprintf("v3 file (%d bytes) not smaller than v2 (%d bytes)",
				cs.FileBytes, cs.FileBytesV2))
		}
	}
	// The fleet floors (-fleet reports): members must actually share
	// work through the networked kv tier — a fleet where every node
	// recomputes everything has silently lost its shared-distance tier.
	if fb := rep.Fleet; fb != nil {
		if fb.SharedHitRate <= 0 {
			fails = append(fails, "fleet members shared nothing (fleet-wide hit rate 0)")
		}
		if fb.Shared.RemoteHits == 0 || fb.Shared.RemotePuts == 0 {
			fails = append(fails, fmt.Sprintf("fleet kv tier carried nothing (remote hits=%d puts=%d)",
				fb.Shared.RemoteHits, fb.Shared.RemotePuts))
		}
		if fb.KV.Entries == 0 {
			fails = append(fails, "fleet kv store holds no entries")
		}
		if fb.Recalcs == 0 || fb.RecalcsPerSec <= 0 {
			fails = append(fails, "fleet served no recalculations")
		}
		if fb.StepP50MS <= 0 || fb.StepP99MS < fb.StepP50MS {
			fails = append(fails, fmt.Sprintf("fleet step percentiles degenerate: p50=%.3fms p99=%.3fms",
				fb.StepP50MS, fb.StepP99MS))
		}
		// Self-healing floors: the node kill must have landed on live
		// sessions (recoveries > 0 — a kill nobody noticed proves
		// nothing) and no caller may have seen an error (the whole point
		// of automatic session recovery).
		if fb.NodeKill.Recoveries == 0 {
			fails = append(fails, "node-kill phase triggered no session recoveries (kill landed on an idle member)")
		}
		if fb.NodeKill.Errors != 0 {
			fails = append(fails, fmt.Sprintf("node-kill phase leaked %d caller-visible errors", fb.NodeKill.Errors))
		}
	}
	if len(fails) == 0 {
		fmt.Println("bench floors: all passed")
		return nil
	}
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "bench floor violated:", f)
	}
	return fmt.Errorf("%d bench floor(s) violated", len(fails))
}
