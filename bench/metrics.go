package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/wire"
)

// metricDef names one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; bench_test.go keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which it may worsen
}

// endToEnd are the metrics of an untraced run, what a user of the
// system sees. fail_ratio is reported next to them (report.Extra) and
// judged by -compare (any increase), but is not in this list: the
// driver wants metrics that are never 0, and the result line's
// attempted/failed counts already carry it. The bounds are what ten
// seeds on the two-core reference box can resolve, see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.20},
	{"step_p50_ms", "ms", "lower", 0.20},
	{"step_p90_ms", "ms", "lower", 0.20},
	{"range_p50_ms", "ms", "lower", 0.20},
	{"weight_p50_ms", "ms", "lower", 0.20},
	{"cpu_ms_per_step", "ms", "lower", 0.20},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer are the metrics of a traced run, one module per prefix.
var perLayer = []metricDef{
	{Name: "query.parse_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "query.bind_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "session.self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "session.create_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "session.undo_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "session.recalcs_per_step", Unit: "count", Better: "lower"},
	{Name: "core.total_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "core.distances_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.shared_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.shared_fills_per_step", Unit: "count", Better: "lower"},
	{Name: "core.shared_evictions_per_step", Unit: "count", Better: "lower"},
	{Name: "core.shared_waits", Unit: "count", Better: "lower"},
	{Name: "core.shared_rejects", Unit: "count", Better: "lower"},
	{Name: "core.shared_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "core.interior_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.remote_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.breaker_trips", Unit: "count", Better: "lower"},
	{Name: "core.short_circuits", Unit: "count", Better: "lower"},
	{Name: "relevance.evaluate_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "relevance.scale_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "relevance.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "relevance.sketch_hits_per_step", Unit: "count", Better: "higher"},
	{Name: "relevance.sketch_rescan_ratio", Unit: "ratio", Better: "lower"},
	{Name: "topk.select_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "reduce.reduce_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "dataset.segs_per_step", Unit: "count", Better: "lower"},
	{Name: "dataset.segs_skipped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dataset.cache_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "dataset.open_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.write_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.file_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "dataset.cold_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "server.mutate_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "server.results_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "server.mutate_self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "server.results_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "server.http_5xx", Unit: "count", Better: "lower"},
	{Name: "server.recalcs_per_step", Unit: "count", Better: "lower"},
	{Name: "client.mutate_self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "client.results_self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "client.req_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "client.resp_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "client.attempts_per_call", Unit: "ratio", Better: "lower"},
	{Name: "client.recoveries", Unit: "count", Better: "lower"},
	{Name: "router.self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "router.ingress_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "router.forwards_per_step", Unit: "count", Better: "lower"},
	{Name: "router.forward_errors", Unit: "count", Better: "lower"},
	{Name: "kv.get_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "kv.put_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "kv.gets_per_step", Unit: "count", Better: "lower"},
	{Name: "kv.puts_per_step", Unit: "count", Better: "lower"},
	{Name: "kv.get_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "kv.put_bytes_per_step", Unit: "B", Better: "lower"},
	{Name: "kv.server_self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "kv.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "kv.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "kv.entries", Unit: "count", Better: "lower"},
	{Name: "datagen.traffic_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// maxTraceOverhead fails a traced run whose traced steps are this much
// slower than its untraced ones: the per-layer numbers would describe
// the tracing, not the system. See traceOverhead for what is compared.
const maxTraceOverhead = 0.10

// blocks is how many equal parts (by step index, per client) the timed
// phase is cut into. Every timing metric is computed per block and the
// median block is reported, so one noisy-neighbour burst moves one
// block and not the number.
const blocks = 5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is nearest-rank over an unsorted sample; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// blockStat evaluates f on every block and returns the median block's
// value and the blocks' spread, (max−min)/median. -compare calls a
// metric unresolved when that spread is wider than the metric's bound.
func blockStat(f func(block int) float64) (median, spread float64) {
	vals := make([]float64, blocks)
	for b := range vals {
		vals[b] = f(b)
	}
	sort.Float64s(vals)
	median = vals[blocks/2]
	return median, ratio(vals[blocks-1]-vals[0], median)
}

// blockOf returns client run r's samples of one block.
func blockOf(r *clientRun, block int) []sample {
	n := len(r.samples)
	return r.samples[block*n/blocks : (block+1)*n/blocks]
}

// endToEndMetrics computes the untraced run's numbers. spreads carries
// the block spread of the block-median metrics, extra what is printed
// but not judged.
func endToEndMetrics(res *runResult) (vals, spreads, extra map[string]float64) {
	vals, spreads, extra = map[string]float64{}, map[string]float64{}, map[string]float64{}

	setups := make([]float64, len(res.setups))
	for i, d := range res.setups {
		setups[i] = d.Seconds()
	}
	vals["setup_s"] = percentile(setups, 50)
	spreads["setup_s"] = ratio(slices.Max(setups)-slices.Min(setups), vals["setup_s"])

	// latencies gathers the correct steps of one block (or of the whole
	// phase for block < 0) that keep returns true for.
	latencies := func(block int, keep func(sample) bool) []float64 {
		var xs []float64
		for c := range res.clients {
			ss := res.clients[c].samples
			if block >= 0 {
				ss = blockOf(&res.clients[c], block)
			}
			for _, s := range ss {
				if !s.failed && keep(s) {
					xs = append(xs, ms(s.total))
				}
			}
		}
		return xs
	}
	any := func(sample) bool { return true }
	blockMetric := func(name string, f func(block int) float64) {
		vals[name], spreads[name] = blockStat(f)
	}
	blockMetric("steps_per_s", func(b int) float64 {
		// Closed loop: a client's rate over a block is its step count
		// over the time those steps took; the clients' rates add.
		var rate float64
		for c := range res.clients {
			var n int
			var busy time.Duration
			for _, s := range blockOf(&res.clients[c], b) {
				busy += s.total
				if !s.failed {
					n++
				}
			}
			rate += ratio(float64(n), busy.Seconds())
		}
		return rate
	})
	blockMetric("step_p50_ms", func(b int) float64 { return percentile(latencies(b, any), 50) })
	blockMetric("step_p90_ms", func(b int) float64 { return percentile(latencies(b, any), 90) })
	blockMetric("range_p50_ms", func(b int) float64 {
		return percentile(latencies(b, func(s sample) bool { return s.kind == opRange }), 50)
	})
	blockMetric("weight_p50_ms", func(b int) float64 {
		return percentile(latencies(b, func(s sample) bool { return s.kind == opWeight }), 50)
	})

	attempted, failed := res.attempts()
	vals["cpu_ms_per_step"] = ratio(ms(res.cpu), float64(attempted))
	vals["live_heap_mb"] = float64(res.liveHeap) / 1e6

	all := latencies(-1, any)
	extra["step_p95_ms"] = percentile(all, 95)
	extra["step_p99_ms"] = percentile(all, 99)
	extra["steps_per_s_wall"] = ratio(float64(attempted-failed), res.wall.Seconds())
	extra["fail_ratio"] = ratio(float64(failed), float64(attempted))
	extra["timed_s"] = res.wall.Seconds()
	return vals, spreads, extra
}

// attempts counts the timed steps tried and the ones that errored.
func (res *runResult) attempts() (attempted, failed int) {
	for c := range res.clients {
		for _, s := range res.clients[c].samples {
			attempted++
			if s.failed {
				failed++
			}
		}
	}
	return attempted, failed
}

// perLayerMetrics computes the traced run's numbers. Times and bytes
// come from the spans and stage timings of the traced steps and are
// divided by the number of traced steps; cumulative counters (shared
// cache, shard, kv stats) cannot be split by step and are differenced
// over the whole timed phase and divided by all of its steps.
func perLayerMetrics(res *runResult) map[string]float64 {
	v := map[string]float64{}
	tot := res.tracer.totals()

	var traced, all float64 // correct steps
	var tm wire.Timings     // summed over the traced steps
	recalcs := 0
	var creates, undos []float64
	for c := range res.clients {
		for _, s := range res.clients[c].samples {
			if s.failed {
				continue
			}
			all++
			recalcs += s.recalcs
			if !s.traced {
				continue
			}
			traced++
			tm.BindNS += s.tm.BindNS
			tm.DistancesNS += s.tm.DistancesNS
			tm.EvaluateNS += s.tm.EvaluateNS
			tm.SelectNS += s.tm.SelectNS
			tm.ScaleNS += s.tm.ScaleNS
			tm.ReduceNS += s.tm.ReduceNS
			tm.TotalNS += s.tm.TotalNS
			tm.CacheHits += s.tm.CacheHits
			tm.CacheMisses += s.tm.CacheMisses
			tm.Pruned += s.tm.Pruned
			tm.Chunks += s.tm.Chunks
			tm.SketchHits += s.tm.SketchHits
			tm.SketchRescans += s.tm.SketchRescans
			tm.Segs += s.tm.Segs
			tm.SegsSkipped += s.tm.SegsSkipped
			switch s.kind {
			case opCreate:
				creates = append(creates, ms(s.mutate))
			case opUndo:
				undos = append(undos, ms(s.mutate))
			}
		}
	}
	if len(creates) == 0 { // drag workloads create their sessions in set-up
		for _, d := range res.creates {
			creates = append(creates, ms(d))
		}
	}
	perTraced := func(ns int64) float64 { return ratio(float64(ns)/1e6, traced) }
	perStep := func(n float64) float64 { return ratio(n, all) }

	v["query.parse_ms_per_step"] = perTraced(tot.total["query.parse"])
	v["query.bind_ms_per_step"] = perTraced(tm.BindNS)

	// In process the session call is visible: what it spends outside the
	// engine run is its own. Over the wire that time is inside
	// server.mutate_self.
	if n := tot.total["session.mutate"] + tot.total["session.create"]; n > 0 {
		v["session.self_ms_per_step"] = perTraced(n - tm.TotalNS)
	}
	v["session.create_p50_ms"] = percentile(creates, 50)
	v["session.undo_p50_ms"] = percentile(undos, 50)
	v["session.recalcs_per_step"] = perStep(float64(recalcs))

	sh, sh0 := res.after.shared, res.before.shared
	v["core.total_ms_per_step"] = perTraced(tm.TotalNS)
	v["core.distances_ms_per_step"] = perTraced(tm.DistancesNS)
	v["core.cache_hit_ratio"] = ratio(float64(tm.CacheHits), float64(tm.CacheHits+tm.CacheMisses))
	v["core.shared_hit_ratio"] = ratio(float64(sh.Hits-sh0.Hits), float64(sh.Hits-sh0.Hits+sh.Misses-sh0.Misses))
	fills := float64(sh.Fills - sh0.Fills)
	v["core.shared_fills_per_step"] = perStep(fills)
	// Fills already leave rejected leaves out, so what was stored and is
	// no longer resident was evicted.
	v["core.shared_evictions_per_step"] = perStep(max(0, fills-float64(sh.Entries-sh0.Entries)))
	v["core.shared_waits"] = float64(sh.Waits - sh0.Waits)
	v["core.shared_rejects"] = float64(sh.Rejects - sh0.Rejects)
	v["core.shared_resident_mb"] = float64(sh.Bytes+sh.InteriorBytes) / 1e6
	v["core.interior_hit_ratio"] = ratio(float64(sh.InteriorHits-sh0.InteriorHits),
		float64(sh.InteriorHits-sh0.InteriorHits+sh.InteriorMisses-sh0.InteriorMisses))
	v["core.remote_hit_ratio"] = ratio(float64(sh.RemoteHits-sh0.RemoteHits),
		float64(sh.RemoteHits-sh0.RemoteHits+sh.RemoteMisses-sh0.RemoteMisses))
	v["core.breaker_trips"] = float64(sh.RemoteTrips - sh0.RemoteTrips)
	v["core.short_circuits"] = float64(sh.RemoteShortCircuits - sh0.RemoteShortCircuits)

	v["relevance.evaluate_ms_per_step"] = perTraced(tm.EvaluateNS)
	v["relevance.scale_ms_per_step"] = perTraced(tm.ScaleNS)
	v["relevance.pruned_ratio"] = ratio(float64(tm.Pruned), float64(tm.Chunks))
	v["relevance.sketch_hits_per_step"] = ratio(float64(tm.SketchHits), traced)
	v["relevance.sketch_rescan_ratio"] = ratio(float64(tm.SketchRescans), float64(tm.Chunks))
	v["topk.select_ms_per_step"] = perTraced(tm.SelectNS)
	v["reduce.reduce_ms_per_step"] = perTraced(tm.ReduceNS)

	v["dataset.segs_per_step"] = ratio(float64(tm.Segs), traced)
	v["dataset.segs_skipped_ratio"] = ratio(float64(tm.SegsSkipped), float64(tm.Segs))
	v["dataset.cache_resident_mb"] = float64(res.after.segCacheBytes) / 1e6
	v["dataset.open_ms"] = ms(res.probe.open)
	v["dataset.write_ms"] = ms(res.probe.write)
	v["dataset.file_bytes_per_row"] = ratio(float64(res.probe.fileBytes), float64(res.cfg.rows))
	v["dataset.cold_scan_ms"] = ms(res.probe.coldScan)

	v["server.mutate_ms_per_step"] = perTraced(tot.total["server.mutate"])
	v["server.results_ms_per_step"] = perTraced(tot.total["server.results"])
	if n := tot.total["server.mutate"]; n > 0 {
		v["server.mutate_self_ms_per_step"] = perTraced(n - tm.TotalNS)
	}
	v["server.results_bytes_per_step"] = ratio(float64(tot.resp["server.results"]), traced)
	v["server.recalcs_per_step"] = perStep(float64(res.after.serverRecalcs - res.before.serverRecalcs))

	calls := tot.count["client.mutate"] + tot.count["client.results"]
	v["client.mutate_self_ms_per_step"] = perTraced(tot.self["client.mutate"])
	v["client.results_self_ms_per_step"] = perTraced(tot.self["client.results"])
	v["client.attempts_per_call"] = ratio(float64(tot.count["client.rt"]), float64(calls))
	v["client.recoveries"] = float64(res.after.recoveries - res.before.recoveries)

	if tot.count["router"] > 0 {
		v["router.self_ms_per_step"] = perTraced(tot.self["router"])
		// With a router in the path, what a client round trip spends
		// outside the router's handler is the extra loopback hop.
		v["router.ingress_ms_per_step"] = perTraced(tot.self["client.rt"])
		v["router.forwards_per_step"] = ratio(float64(tot.count["router.rt"]), traced)
	}

	v["kv.get_ms_per_step"] = perTraced(tot.total["kv.get"])
	v["kv.put_ms_per_step"] = perTraced(tot.total["kv.put"])
	v["kv.gets_per_step"] = ratio(float64(tot.count["kv.get"]), traced)
	v["kv.puts_per_step"] = ratio(float64(tot.count["kv.put"]), traced)
	v["kv.get_bytes_per_step"] = ratio(float64(tot.resp["kv.get"]), traced)
	v["kv.put_bytes_per_step"] = ratio(float64(tot.req["kv.put"]), traced)
	v["kv.server_self_ms_per_step"] = perTraced(tot.self["kv.server"])
	kv1, kv0 := res.after.kv, res.before.kv
	v["kv.hit_ratio"] = ratio(float64(kv1.Hits-kv0.Hits), float64(kv1.Gets-kv0.Gets))
	v["kv.resident_mb"] = float64(kv1.Bytes) / 1e6
	v["kv.entries"] = float64(kv1.Entries)

	v["datagen.traffic_ms"] = ms(res.probe.datagen)
	v["trace.spans"] = float64(len(res.tracer.spans))
	v["trace.overhead_ratio"], _ = traceOverhead(res)

	v["client.req_bytes_per_step"] = ratio(float64(tot.req["client.rt"]), traced)
	v["client.resp_bytes_per_step"] = ratio(float64(tot.resp["client.rt"]), traced)
	for _, name := range []string{"server.create", "server.mutate", "server.results", "server.other"} {
		v["server.http_5xx"] += float64(tot.failed[name])
	}
	v["router.forward_errors"] = float64(tot.failed["router.rt"])

	for _, d := range perLayer {
		if _, ok := v[d.Name]; !ok {
			v[d.Name] = 0 // zero by construction on this workload
		}
	}
	return v
}

// traceOverhead compares each traced chunk of steps with the untraced
// chunks on either side of it: all three hold the same mix of ops and,
// the loop being closed, time per chunk is the inverse of throughput.
// The median over all chunks of all clients is the reported overhead;
// one garbage collection or one slow kv round trip in a chunk moves a
// mean by more than the tracing does. A 20 s run has some thirty traced chunks
// whose ratios scatter by a tenth, so its median is only good to a few
// percent: the run is failed on the lower quartile instead, that is,
// when three traced chunks in four ran more than maxTraceOverhead
// slower than their neighbours, which noise does not produce.
func traceOverhead(res *runResult) (median, lowerQuartile float64) {
	n := res.chunk
	var ratios []float64
	for c := range res.clients {
		ss := res.clients[c].samples
		sum := func(from int) (d time.Duration) {
			for _, s := range ss[from : from+n] {
				d += s.total
			}
			return d
		}
		for i := n; i+2*n <= len(ss); i += 2 * n {
			ratios = append(ratios, ratio(2*float64(sum(i)), float64(sum(i-n)+sum(i+n)))-1)
		}
	}
	return percentile(ratios, 50), percentile(ratios, 25)
}
