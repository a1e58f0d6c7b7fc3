package core

import (
	"testing"
	"time"
)

func TestConcurrentRuns(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				res, err := e.RunSQL(`SELECT x FROM T WHERE x > 6 AND y < 5`)
				if err != nil {
					done <- err
					return
				}
				if res.Stats().NumObjects != 10 {
					done <- errStat
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errStat = errUnexpected{}

type errUnexpected struct{}

func (errUnexpected) Error() string { return "unexpected stats" }

func TestStageTimingsPopulated(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	res, err := e.RunSQL(`SELECT x FROM T WHERE x > 4 AND y < 8`)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timings
	if tm.Total <= 0 {
		t.Fatal("total timing missing")
	}
	sum := tm.Bind + tm.Distances + tm.Evaluate + tm.Sort + tm.Select + tm.Reduce
	if sum > tm.Total+time.Millisecond {
		t.Fatalf("stage sum %v exceeds total %v", sum, tm.Total)
	}
	// The stages cover the bulk of the run (the residue is slice
	// bookkeeping between marks).
	if sum < tm.Total/2 {
		t.Fatalf("stage sum %v suspiciously small vs total %v", sum, tm.Total)
	}
	for _, d := range []time.Duration{tm.Bind, tm.Distances, tm.Evaluate, tm.Sort, tm.Select, tm.Reduce} {
		if d < 0 {
			t.Fatal("negative stage duration")
		}
	}
	// The default path ranks by selection, not by the full sort.
	if tm.Select <= 0 {
		t.Fatal("selection stage not timed on the default path")
	}
	if tm.Sort != 0 {
		t.Fatal("full sort ran on the default selection path")
	}
	// The root's combine pass is timed as a part of it.
	if tm.RootCombine <= 0 || tm.RootCombine > tm.Select {
		t.Fatalf("root combine %v outside (0, Select %v]", tm.RootCombine, tm.Select)
	}
}

func TestStageTimingsFullSort(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8, FullSort: true})
	res, err := e.RunSQL(`SELECT x FROM T WHERE x > 4 AND y < 8`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.Sort <= 0 {
		t.Fatal("sort stage not timed under FullSort")
	}
	if res.Timings.Select != 0 {
		t.Fatal("selection stage ran under FullSort")
	}
}
