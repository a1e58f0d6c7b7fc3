package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict judges one end-to-end metric of B against A. A block spread
// wider than the bound on either side means the runs cannot resolve a
// change of the bound's size; otherwise B regressed when it is worse
// than A by more than the bound's share of A.
func verdict(d metricDef, a, b, spread float64) string {
	worse := ratio(b-a, a)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	}
	return "ok"
}

// sameLoad says why two reports cannot be held against each other, or
// nil: they must describe the same load (seed, rows, clients, warm-up).
func sameLoad(a, b *report) error {
	for _, k := range []string{"seed", "rows", "clients", "warmup"} {
		if a.Env[k] != b.Env[k] {
			return fmt.Errorf("env.%s differs: %v and %v", k, a.Env[k], b.Env[k])
		}
	}
	return nil
}

// samePrefix reports whether two runs of one workload on one seed read
// back the same pictures for as long as both ran: their checkpoint
// digests agree up to the shorter list.
func samePrefix(a, b []string) bool {
	n := min(len(a), len(b))
	return slices.Equal(a[:n], b[:n])
}

// compareReports prints B against A: per workload, every end-to-end
// metric with both values, the relative change, its bound and a
// verdict, then the per-layer deltas. It fails on any regression, on an
// incorrect run on either side, on read-backs that differ between the
// two, and when the reports share no workload to compare.
func compareReports(out io.Writer, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	if err := sameLoad(a, b); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', tabwriter.AlignRight)
	var problems []string
	compared := 0
	for _, name := range workloads {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil && wb == nil {
			continue
		}
		if wa == nil || wb == nil || wa.Traced != wb.Traced {
			problems = append(problems, name+": not in both reports with the same -trace")
			continue
		}
		compared++
		if !wa.Correct || !wb.Correct {
			problems = append(problems, fmt.Sprintf("%s: incorrect run (A %v, B %v)", name, wa.Errors, wb.Errors))
		}
		if !samePrefix(wa.Checkpoints, wb.Checkpoints) {
			problems = append(problems, name+": the two runs read back different pictures (checkpoint digests differ)")
		}
		if !wa.Traced {
			fmt.Fprintf(tw, "%s\tA\tB\tchange\tbound\tspread\t\t\n", name)
			for _, d := range endToEnd {
				va, vb := wa.Metrics[d.Name].Value, wb.Metrics[d.Name].Value
				spread := max(wa.Spreads[d.Name], wb.Spreads[d.Name])
				status := verdict(d, va, vb, spread)
				if status == "regressed" {
					problems = append(problems, name+": "+d.Name+" regressed")
				}
				fmt.Fprintf(tw, "%s %s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\t\n",
					d.Name, d.Unit, va, vb, 100*ratio(vb-va, va), 100*d.Bound, 100*spread, status)
			}
			// fail_ratio is 0 on a healthy run, so it has no relative
			// bound: any increase is a regression.
			fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
			status := "ok"
			if fb > fa {
				status = "regressed"
				problems = append(problems, name+": fail_ratio regressed")
			}
			fmt.Fprintf(tw, "fail_ratio ratio\t%.4g\t%.4g\t\tany\t\t%s\t\n", fa, fb, status)
		} else {
			fmt.Fprintf(tw, "%s, per layer\tA\tB\tchange\t\n", name)
			for _, d := range perLayer {
				va, vb := wa.Metrics[d.Name].Value, wb.Metrics[d.Name].Value
				if va == 0 && vb == 0 {
					continue
				}
				fmt.Fprintf(tw, "%s %s\t%.4g\t%.4g\t%+.1f%%\t\n", d.Name, d.Unit, va, vb, 100*ratio(vb-va, va))
			}
		}
		fmt.Fprintln(tw, "\t\t\t\t")
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if compared == 0 {
		problems = append(problems, "the reports share no workload")
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}
