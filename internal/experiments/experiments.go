// Package experiments regenerates every figure and quantitative claim
// of the paper's evaluation (there are no numbered tables; figures 1–5
// plus in-text claims define the experimental surface). Each experiment
// returns a Report pairing the paper's expectation with the measured
// outcome and a pass/fail judgement of whether the qualitative shape
// holds. The cmd/visdbbench binary prints these reports.
package experiments

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/render"
)

// Report is the outcome of one experiment.
type Report struct {
	ID          string
	Title       string
	Expectation string   // what the paper shows or claims
	Measured    []string // measured lines
	Pass        bool     // the qualitative shape holds
	Images      []string // files written (when outDir was non-empty)
}

// Format renders the report for terminals and logs.
func (r *Report) Format() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "=== %s [%s] %s\n", r.ID, status, r.Title)
	fmt.Fprintf(&b, "  paper:    %s\n", r.Expectation)
	for _, m := range r.Measured {
		fmt.Fprintf(&b, "  measured: %s\n", m)
	}
	for _, img := range r.Images {
		fmt.Fprintf(&b, "  image:    %s\n", img)
	}
	return b.String()
}

func (r *Report) addf(format string, args ...any) {
	r.Measured = append(r.Measured, fmt.Sprintf(format, args...))
}

// saveImage writes im under outDir (no-op when outDir is empty) and
// records the path.
func (r *Report) saveImage(outDir, name string, im *render.Image) error {
	if outDir == "" {
		return nil
	}
	path := filepath.Join(outDir, name)
	if err := im.SavePNG(path); err != nil {
		return err
	}
	r.Images = append(r.Images, path)
	return nil
}

// Runner is an experiment entry point.
type Runner func(outDir string) (*Report, error)

// Registry maps experiment ids to runners, in presentation order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"f1a", Fig1a},
		{"f1b", Fig1b},
		{"f2", Fig2},
		{"f3", Fig3},
		{"f4", Fig4},
		{"f5", Fig5},
		{"c1", ClaimScaling},
		{"c2", ClaimCapacity},
		{"c3", ClaimHotSpotRecall},
		{"c4", ClaimApproxJoin},
		{"a1", AblationNormalize},
		{"a2", AblationORMean},
		{"a3", AblationReduce},
		{"a4", AblationANDCombiner},
	}
}

// All runs every experiment, returning the reports (and the first error
// encountered, with partial results).
func All(outDir string) ([]*Report, error) {
	var out []*Report
	for _, e := range Registry() {
		r, err := e.Run(outDir)
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
