package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// toyConfig is a workload small enough for go test: 5 000 rows, a few
// dozen steps.
func toyConfig(t *testing.T, workload string, seed int64, traced bool) *config {
	return &config{workload: workload, seed: seed, rows: 5000, clients: 2,
		warmup: 20, verify: 20, setups: 1, steps: 60, traced: traced, workdir: t.TempDir()}
}

func toyRun(t *testing.T, cfg *config) *workloadReport {
	t.Helper()
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if cfg.traced {
		checkSpanTrees(t, res.tracer.spans)
	}
	w := res.report()
	if cfg.traced {
		// A toy run's steps take a millisecond, so tracing them is not
		// cheap; the overhead limit is for full-size runs.
		w.Errors = slices.DeleteFunc(w.Errors, func(e string) bool { return strings.HasPrefix(e, "trace.overhead_ratio") })
		w.Correct = w.Failed == 0 && len(w.Errors) == 0
	}
	if !w.Correct {
		t.Fatalf("%s: incorrect: %d/%d failed, errors %v", cfg.workload, w.Failed, w.Attempted, w.Errors)
	}
	return w
}

// checkSpanTrees asserts that every parent exists, belongs to the same
// step and contains its child.
func checkSpanTrees(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for i, s := range spans {
		if s.ID != i {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(spans) {
			t.Fatalf("span %d (%s) has missing parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Client != s.Client || p.Step != s.Step {
			t.Fatalf("span %d (%s) and its parent %s belong to different steps", i, s.Name, p.Name)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s, %d..%d) is not inside its parent %s (%d..%d)",
				i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if s.Step >= 0 && s.Name != "step" && p.Parent < 0 && p.Name != "step" {
			t.Fatalf("span %d (%s) hangs off root %s, not off its step", i, s.Name, p.Name)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that a report carries exactly the named metrics,
// finite, with the declared units.
func checkMetrics(t *testing.T, w *workloadReport, defs []metricDef) {
	t.Helper()
	if len(w.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(w.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := w.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s is %v", d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, v.Unit, d.Unit)
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.Name)
		}
	}
}

// TestSmoke runs every workload untraced and traced at toy size.
func TestSmoke(t *testing.T) {
	rep := &report{Workloads: map[string]*workloadReport{}}
	for _, name := range workloads {
		w := toyRun(t, toyConfig(t, name, 1994, false))
		checkMetrics(t, w, endToEnd)
		for _, d := range endToEnd {
			if w.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, d.Name, w.Metrics[d.Name].Value)
			}
		}
		rep.Workloads[name] = w

		tw := toyRun(t, toyConfig(t, name, 1994, true))
		checkMetrics(t, tw, perLayer)
		if tw.Metrics["trace.spans"].Value == 0 || tw.Metrics["core.total_ms_per_step"].Value <= 0 {
			t.Errorf("%s: traced run attributed nothing: %v", name, tw.Metrics)
		}
		remote := name == "drag_http" || name == "drag_fleet"
		if got := tw.Metrics["server.results_bytes_per_step"].Value > 0; got != remote {
			t.Errorf("%s: server spans present = %v, want %v", name, got, remote)
		}
		if got := tw.Metrics["kv.gets_per_step"].Value > 0; got != (name == "drag_fleet") {
			t.Errorf("%s: kv spans present = %v", name, got)
		}
		if got := tw.Metrics["router.forwards_per_step"].Value; (name == "drag_fleet") != (got > 0) {
			t.Errorf("%s: router.forwards_per_step = %v", name, got)
		}
		if name == "cold_disk" && tw.Metrics["query.parse_ms_per_step"].Value <= 0 {
			t.Errorf("cold_disk: no parse time attributed")
		}
		// Tracing must not change what the system computes.
		if !reflect.DeepEqual(w.Digests, tw.Digests) {
			t.Errorf("%s: traced digests %v differ from untraced %v", name, tw.Digests, w.Digests)
		}
	}
	checkDragDigests(rep)
	for _, name := range []string{"drag_http", "drag_fleet"} {
		if w := rep.Workloads[name]; !w.Correct {
			t.Errorf("%s disagrees with drag_inproc: %v", name, w.Errors)
		}
	}
}

// TestDragDigestMismatchFails checks the gate itself: a workload whose
// digests differ from drag_inproc's has every step counted as failed.
func TestDragDigestMismatchFails(t *testing.T) {
	mk := func(d string) *workloadReport {
		return &workloadReport{result: result{Correct: true, Attempted: 60}, Steps: []int{30, 30}, Digests: []string{d, d}}
	}
	rep := &report{Workloads: map[string]*workloadReport{
		"drag_inproc": mk("aa"), "drag_http": mk("aa"), "drag_fleet": mk("bb")}}
	checkDragDigests(rep)
	if w := rep.Workloads["drag_http"]; !w.Correct || w.Failed != 0 {
		t.Errorf("agreeing workload marked incorrect: %+v", w)
	}
	if w := rep.Workloads["drag_fleet"]; w.Correct || w.Failed != w.Attempted || len(w.Errors) == 0 {
		t.Errorf("disagreeing workload not failed: %+v", w)
	}
}

// TestSeededInputs pins that the seed, and nothing else, decides the
// script and therefore the results.
func TestSeededInputs(t *testing.T) {
	for _, gen := range []func(seed int64) []op{
		func(seed int64) []op {
			ops, err := dragScript(seed, 0, 200)
			if err != nil {
				t.Fatal(err)
			}
			return ops
		},
		func(seed int64) []op { return coldScript(seed, 0, 200) },
	} {
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Error("the same seed generated two different scripts")
		}
		if reflect.DeepEqual(a, c) {
			t.Error("different seeds generated the same script")
		}
	}
	digests := func(seed int64) []string {
		return toyRun(t, toyConfig(t, "drag_inproc", seed, false)).Digests
	}
	a, b, c := digests(7), digests(7), digests(8)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("the same seed gave digests %v and %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 gave the same digests %v", a)
	}
}

// TestDragScriptMix pins the load shape: 50 % range drags (half of them
// bookmark revisits), 30 % weight changes, 20 % undos, no no-ops.
func TestDragScriptMix(t *testing.T) {
	for c := 0; c < 3; c++ {
		ops, err := dragScript(1994, c, 2000)
		if err != nil {
			t.Fatal(err)
		}
		marks := bookmarks(1994)
		count := map[opKind]int{}
		revisits := 0
		for _, o := range ops {
			count[o.Kind]++
			if o.Kind != opRange {
				continue
			}
			for _, m := range marks[o.Attr] {
				if m == [2]float64{o.Lo, o.Hi} {
					revisits++
					break
				}
			}
		}
		if count[opRange] != 1000 || count[opWeight] != 600 || count[opUndo] != 400 {
			t.Errorf("client %d: mix %v", c, count)
		}
		// A fresh range may land on a bookmark by chance.
		if revisits < 500 || revisits > 520 {
			t.Errorf("client %d: %d of 1000 drags revisit a bookmark", c, revisits)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in metrics.go
// equal: names, units, directions, bounds and workloads.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloads)
	}
	var e2e, layers []metricDef
	for _, m := range bm.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bm.PerLayer {
		layers = append(layers, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", layers, perLayer)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) || bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bm.Paths, bm.RunSeconds)
	}
}

// TestCompare drives -compare over two reports: one metric within its
// bound, one beyond it, one too noisy to tell; then the reports it must
// refuse to pass.
func TestCompare(t *testing.T) {
	mk := func(p50, p90, heap float64, spread float64, edit func(*report)) *report {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{10, d.Unit}
		}
		m["step_p50_ms"] = value{p50, "ms"}
		m["step_p90_ms"] = value{p90, "ms"}
		m["live_heap_mb"] = value{heap, "MB"}
		r := &report{
			Env: map[string]any{"seed": 7, "rows": 200000, "clients": 2, "warmup": 100},
			Workloads: map[string]*workloadReport{"drag_http": {
				result:      result{Correct: true, Attempted: 100, Metrics: m},
				Spreads:     map[string]float64{"step_p90_ms": spread},
				Checkpoints: []string{"aa", "bb"},
			}}}
		if edit != nil {
			edit(r)
		}
		return r
	}
	write := func(name string, r *report) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", mk(30, 50, 200, 0.05, nil))
	var out bytes.Buffer
	if err := compareReports(&out, a, write("same.json", mk(31, 52, 205, 0.05, nil))); err != nil {
		t.Errorf("changes within the bounds failed the comparison: %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareReports(&out, a, write("worse.json", mk(45, 90, 190, 0.30, nil)))
	if err == nil {
		t.Errorf("a 50%% slower median passed the comparison:\n%s", out.String())
	}
	for _, want := range []string{"step_p50_ms ms", "regressed", "unresolved", "+50.0%", "drag_http", "fail_ratio"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	lines := strings.Split(out.String(), "\n")
	for _, l := range lines {
		switch {
		case strings.Contains(l, "step_p50_ms") && !strings.Contains(l, "regressed"),
			strings.Contains(l, "step_p90_ms") && !strings.Contains(l, "unresolved"),
			strings.Contains(l, "live_heap_mb") && !strings.HasSuffix(strings.TrimSpace(l), "ok"):
			t.Errorf("wrong verdict: %q", l)
		}
	}

	for name, edit := range map[string]func(*report){
		"another seed":      func(r *report) { r.Env["seed"] = 8 },
		"another row count": func(r *report) { r.Env["rows"] = 50000 },
		"incorrect run":     func(r *report) { r.Workloads["drag_http"].Correct = false },
		"failed steps":      func(r *report) { r.Workloads["drag_http"].Failed = 1 },
		"other pictures":    func(r *report) { r.Workloads["drag_http"].Checkpoints[1] = "cc" },
		"no common workload": func(r *report) {
			r.Workloads["cold_disk"] = r.Workloads["drag_http"]
			delete(r.Workloads, "drag_http")
		},
		"nothing at all": func(r *report) { delete(r.Workloads, "drag_http") },
	} {
		if err := compareReports(io.Discard, a, write("b.json", mk(30, 50, 200, 0.05, edit))); err == nil {
			t.Errorf("%s: the comparison passed", name)
		}
	}
}

// TestTraceOverhead feeds traceOverhead synthetic chunks: tracing that
// slows every traced chunk by 30 % must fail the run's limit, a single
// slow chunk among equal ones must not.
func TestTraceOverhead(t *testing.T) {
	mk := func(traced func(chunk int) time.Duration) *runResult {
		res := &runResult{chunk: 20, clients: make([]clientRun, 2)}
		for c := range res.clients {
			for i := 0; i < 400; i++ {
				s := sample{total: 10 * time.Millisecond, traced: (i/20)%2 == 1}
				if s.traced {
					s.total = traced(i / 20)
				}
				res.clients[c].samples = append(res.clients[c].samples, s)
			}
		}
		return res
	}
	med, q := traceOverhead(mk(func(int) time.Duration { return 13 * time.Millisecond }))
	if math.Abs(med-0.3) > 1e-9 || q <= maxTraceOverhead {
		t.Errorf("uniform 30%% overhead measured as median %v, lower quartile %v", med, q)
	}
	med, q = traceOverhead(mk(func(chunk int) time.Duration {
		if chunk == 5 {
			return 40 * time.Millisecond // one burst
		}
		return 10 * time.Millisecond
	}))
	if med != 0 || q > maxTraceOverhead {
		t.Errorf("one slow chunk measured as median %v, lower quartile %v", med, q)
	}
}
