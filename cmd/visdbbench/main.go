// Command visdbbench regenerates the paper's figures and quantitative
// claims (the F, C and A series of internal/experiments) and prints
// paper-expectation vs measured-outcome reports.
//
// Usage:
//
//	visdbbench               # run everything, images into out/
//	visdbbench -exp f4       # one experiment
//	visdbbench -out ""       # skip image output
//	visdbbench -list         # list experiment ids
//
// It measures nothing about the serving path: the cost of one feedback
// step, layer by layer, is the repository benchmark's (bench/).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment id ("+strings.Join(ids(), " ")+") or 'all'")
		out  = flag.String("out", "out", "directory for generated images (empty to skip)")
		list = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()
	if *list {
		printIDs(os.Stdout)
		return
	}
	if err := run(*exp, *out); err != nil {
		fmt.Fprintln(os.Stderr, "visdbbench:", err)
		os.Exit(1)
	}
}

// ids returns every registered experiment id, in registry order.
func ids() []string {
	var out []string
	for _, e := range experiments.Registry() {
		out = append(out, e.ID)
	}
	return out
}

func printIDs(w io.Writer) {
	fmt.Fprintln(w, strings.Join(ids(), "\n"))
}

// lookup resolves an experiment id, ignoring case.
func lookup(id string) (experiments.Runner, bool) {
	for _, e := range experiments.Registry() {
		if strings.EqualFold(e.ID, id) {
			return e.Run, true
		}
	}
	return nil, false
}

func run(exp, out string) error {
	if exp == "all" {
		reports, err := experiments.All(out)
		for _, r := range reports {
			fmt.Println(r.Format())
		}
		if err != nil {
			return err
		}
		failed := 0
		for _, r := range reports {
			if !r.Pass {
				failed++
			}
		}
		fmt.Printf("%d experiments, %d failed\n", len(reports), failed)
		if failed > 0 {
			return fmt.Errorf("%d experiments failed the shape check", failed)
		}
		return nil
	}
	runExp, ok := lookup(exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", exp)
	}
	r, err := runExp(out)
	if err != nil {
		return err
	}
	fmt.Println(r.Format())
	if !r.Pass {
		return fmt.Errorf("experiment %s failed the shape check", r.ID)
	}
	return nil
}
