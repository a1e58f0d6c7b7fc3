// Command bench is the repository's benchmark: one seeded interaction
// script driven against the system at four deployment depths, with
// end-to-end metrics from an untraced run and a per-layer ledger from a
// traced one. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run -C bench . -seed 1994                       # four workloads, end to end
//	go run -C bench . -seed 1994 -trace 1              # four workloads, per layer
//	go run -C bench . -workload drag_fleet -seconds 20 # what BENCHMARK.json runs
//	go run -C bench . -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Timed steps per client when neither -steps nor -seconds is given:
// sized so that each timed phase lasts at least 30 s at the commit that
// added the benchmark, on two cores.
var defaultSteps = map[string]int{"drag_inproc": 1800, "drag_http": 1000, "drag_fleet": 1000, "cold_disk": 1050}

// The load shape is fixed, not configurable: two reports are only
// comparable when they agree on it, and -compare checks that they do.
const (
	benchRows    = 200000 // rows of the traffic catalog
	benchClients = 2      // closed-loop clients, one per core of the reference box
	benchWarmup  = 100    // untimed warm-up steps per client
	benchVerify  = 40     // leading warm-up steps checked against a fresh FullSort engine
	benchSetups  = 3      // set-ups per untraced run; setup_s is their median
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output for one workload, the
// shape BENCHMARK.json's driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// workloadReport is one workload's entry in the report document.
type workloadReport struct {
	result
	Traced bool `json:"traced"`
	// Steps is how many timed steps each client completed.
	Steps []int `json:"steps"`
	// Digests is each client's rolling digest over its timed read-backs;
	// Checkpoints folds the clients' digests after every 100 steps.
	Digests     []string `json:"digests"`
	Checkpoints []string `json:"checkpoints"`
	// Spreads says how far apart the five timed blocks of a metric
	// reported as a median block lie (see blockStat), and for setup_s
	// (max−min)/median over the set-ups.
	Spreads map[string]float64 `json:"spreads,omitempty"`
	Extra   map[string]float64 `json:"extra,omitempty"`
	Errors  []string           `json:"errors,omitempty"`
}

// report is the document -out writes and -compare reads.
type report struct {
	Env       map[string]any             `json:"env"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "one of "+strings.Join(workloads, ", ")+", or all")
		seed     = fs.Int64("seed", 1994, "seed of the data, the bookmarks and the scripts")
		seconds  = fs.Float64("seconds", 0, "length of the timed phase; 0 runs -steps steps instead")
		steps    = fs.Int("steps", 0, "timed steps per client; 0 with -seconds 0 selects the workload's default")
		trace    = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = fs.String("trace-out", "", "write the traced run's spans here as JSON lines")
		out      = fs.String("out", "", "also write the report document here (the input of -compare)")
		compare  = fs.Bool("compare", false, "compare two report documents: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareReports(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace is 0 or 1")
	}
	names := workloads
	if *workload != "all" {
		if !slices.Contains(workloads, *workload) {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		names = []string{*workload}
	}

	rep := &report{Workloads: map[string]*workloadReport{}}
	for _, name := range names {
		cfg := &config{workload: name, seed: *seed, rows: benchRows, clients: benchClients,
			warmup: benchWarmup, verify: benchVerify, setups: benchSetups, steps: *steps,
			seconds: time.Duration(*seconds * float64(time.Second)),
			traced:  *trace == 1, traceOut: *traceOut}
		if cfg.steps == 0 && cfg.seconds == 0 {
			cfg.steps = defaultSteps[name]
		}
		if cfg.traced {
			cfg.setups = 1 // setup_s is an untraced run's metric
			if len(names) > 1 && cfg.traceOut != "" {
				cfg.traceOut = strings.TrimSuffix(*traceOut, ".jsonl") + "." + name + ".jsonl"
			}
		}
		res, err := runWorkload(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.Workloads[name] = res.report()
		rep.Env = environment(cfg)
	}
	checkDragDigests(rep)

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", doc)
	// One result line per workload; run with -workload, the last line of
	// the output is that workload's result.
	correct := true
	for _, name := range names {
		w := rep.Workloads[name]
		line, err := json.Marshal(w.result)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		correct = correct && w.Correct
	}
	if !correct {
		return errors.New("incorrect results, see the report's errors")
	}
	return nil
}

// report turns a run into its report entry.
func (res *runResult) report() *workloadReport {
	w := &workloadReport{Traced: res.cfg.traced}
	w.Attempted, w.Failed = res.attempts()
	defs, vals := endToEnd, map[string]float64(nil)
	if res.cfg.traced {
		defs, vals = perLayer, perLayerMetrics(res)
		if o, q := traceOverhead(res); q > maxTraceOverhead {
			w.Errors = append(w.Errors, fmt.Sprintf("trace.overhead_ratio %.3f (lower quartile %.3f) exceeds %.2f", o, q, maxTraceOverhead))
		}
		if t := vals["core.breaker_trips"]; t > 0 {
			w.Errors = append(w.Errors, fmt.Sprintf("the kv circuit breaker tripped %v times on a healthy run", t))
		}
	} else {
		vals, w.Spreads, w.Extra = endToEndMetrics(res)
	}
	w.Metrics = make(map[string]value, len(defs))
	for _, d := range defs {
		w.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	if res.verifyErr != nil {
		w.Errors = append(w.Errors, "verify: "+res.verifyErr.Error())
	}
	var fold []digest
	for c := range res.clients {
		r := &res.clients[c]
		w.Steps = append(w.Steps, len(r.samples))
		w.Digests = append(w.Digests, fmt.Sprintf("%016x", uint64(r.digest)))
		for _, err := range r.errs {
			w.Errors = append(w.Errors, err.Error())
		}
		for i, d := range r.checkpoints {
			if i == len(fold) {
				fold = append(fold, digestSeed)
			}
			fold[i] = fold[i].word(uint64(d))
		}
	}
	// A checkpoint counts once every client has reached it.
	for i, d := range fold {
		if slices.ContainsFunc(res.clients, func(r clientRun) bool { return len(r.checkpoints) <= i }) {
			break
		}
		w.Checkpoints = append(w.Checkpoints, fmt.Sprintf("%016x", uint64(d)))
	}
	w.Correct = w.Failed == 0 && len(w.Errors) == 0
	return w
}

// checkDragDigests holds the three drag workloads to each other: they
// consume the same script, so their digests must be equal — the final
// ones when they ran the same number of steps, else the ones at the
// last checkpoint all of them reached. A workload that disagrees with
// drag_inproc has every step counted as failed.
func checkDragDigests(rep *report) {
	ref := rep.Workloads["drag_inproc"]
	if ref == nil {
		return
	}
	for _, name := range []string{"drag_http", "drag_fleet"} {
		w := rep.Workloads[name]
		if w == nil {
			continue
		}
		at, got, want := "the end", w.Digests, ref.Digests
		if !slices.Equal(w.Steps, ref.Steps) {
			n := min(len(ref.Checkpoints), len(w.Checkpoints))
			if n == 0 {
				continue
			}
			at = fmt.Sprintf("step %d", n*checkpointEvery)
			got, want = w.Checkpoints[n-1:n], ref.Checkpoints[n-1:n]
		}
		if !slices.Equal(got, want) {
			w.Errors = append(w.Errors, fmt.Sprintf("digests at %s are %v, drag_inproc has %v", at, got, want))
			w.Correct, w.Failed = false, w.Attempted
		}
	}
}

func environment(cfg *config) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"rows":       cfg.rows,
		"clients":    cfg.clients,
		"seed":       cfg.seed,
		"warmup":     cfg.warmup,
		"commit":     commit,
	}
}
