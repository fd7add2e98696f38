package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"phmse/internal/faultinject"
	"phmse/internal/molecule"
	"phmse/internal/solvererr"
)

// waitGoroutines waits until no more than want goroutines are left: a
// stopped helper has signalled its exit before the runtime stops counting
// it.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the solve returned, %d before it", runtime.NumGoroutine(), want)
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
		{name: "fault", mode: Hierarchical, fault: true, wantErr: solvererr.ErrIndefinite},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.fault {
				faultinject.Set(&faultinject.Hooks{Cholesky: func(faultinject.Site) bool { return true }})
				t.Cleanup(faultinject.Reset)
			}
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			resident := false
			e, err := New(p, Config{Mode: c.mode, Procs: 3, MaxCycles: 20, OnCycle: func(cycle int, _ float64) {
				resident = resident || runtime.NumGoroutine() > base
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
			waitGoroutines(t, base)
		})
	}
}
