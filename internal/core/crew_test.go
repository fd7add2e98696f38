package core

import (
	"context"
	"errors"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/molecule"
)

// helpers counts the crew helpers alive — goroutines in
// par.(*crew).help — from the goroutine profile: the process's other
// goroutines, an earlier test's still exiting or the runtime's own, come
// and go on their own schedule. A helper not yet scheduled has no frame of
// help on its stack, so each goroutine is told by its creator, newCrew,
// which starts helpers and nothing else.
func helpers() int {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 2); err != nil {
		panic(err)
	}
	// One blank-line-separated block per goroutine, ending in the
	// "created by" line.
	n := 0
	for _, g := range strings.Split(b.String(), "\n\n") {
		if strings.Contains(g, "created by phmse/internal/par.newCrew") {
			n++
		}
	}
	return n
}

// waitHelpers waits until no more than want crew helpers are left: a
// stopped helper has signalled its exit before its goroutine is gone.
func waitHelpers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for helpers() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d crew helpers after the solve returned, %d before it", helpers(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// A solve's crew lives exactly as long as the solve: its helpers are there
// while cycles run and gone once SolveContext returns — converged, cancelled
// between cycles, or failed on an injected fault.
func TestSolveContextStopsItsCrew(t *testing.T) {
	p := helixProblem(1)
	init := molecule.Perturbed(p, 0.3, 31)
	cases := []struct {
		name    string
		mode    Mode
		cancel  bool
		fault   bool
		wantErr error
	}{
		{name: "hier", mode: Hierarchical},
		{name: "flat", mode: Flat},
		{name: "cancelled", mode: Hierarchical, cancel: true, wantErr: context.Canceled},
		{name: "fault", mode: Hierarchical, fault: true, wantErr: filter.ErrIndefinite},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.fault {
				faultinject.Set(&faultinject.Hooks{Cholesky: func(faultinject.Site) bool { return true }})
				t.Cleanup(faultinject.Reset)
			}
			base := helpers()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			resident := false
			e, err := New(p, Config{Mode: c.mode, Procs: 3, MaxCycles: 20, OnCycle: func(cycle int, _ float64) {
				resident = resident || helpers() > base
				if c.cancel && cycle == 2 {
					cancel()
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.SolveContext(ctx, init); !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if !resident && !c.fault {
				t.Error("no helper was running during the cycles")
			}
			waitHelpers(t, base)
		})
	}
}
