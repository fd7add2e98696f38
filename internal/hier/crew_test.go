package hier

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/pool"
	"phmse/internal/solvererr"
)

// Every entry of the root state's lower triangle is cleared by the one node
// that owns it, before that node's pass, and the upper triangle is written
// by the one mirror: a root state the pool hands back full of NaN, in both
// triangles and in X, gives the same bits as fresh memory, whether the
// subtrees run one after another or concurrently.
func TestDirtyRootStateGivesTheSameBits(t *testing.T) {
	p := chainProblem(24)
	init := molecule.Perturbed(p, 0.2, 3)
	for _, procs := range []int{1, 3} {
		root := mustBuild(t, p)
		if err := root.Prepare(6); err != nil {
			t.Fatal(err)
		}
		opt := Options{Control: filter.Control{BatchSize: 6, InitVar: 100, Team: par.NewTeam(procs)}}
		pool.SetEnabled(false)
		ref, err := UpdatePass(root, init, opt)
		pool.SetEnabled(true)
		if err != nil {
			t.Fatal(err)
		}
		var dirty []*filter.State
		for i := 0; i < 4; i++ {
			s := filter.GetPooledState(root.StateDim())
			for j := range s.X {
				s.X[j] = math.NaN()
			}
			for j := range s.C.Data {
				s.C.Data[j] = math.NaN()
			}
			dirty = append(dirty, s)
		}
		for _, s := range dirty {
			filter.ReleasePooledState(s)
		}
		got, err := UpdatePass(root, init, opt)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ref.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(ref.X[j]) {
				t.Fatalf("%d procs: x[%d] = %v from a dirty state, %v from a fresh one", procs, j, got.X[j], ref.X[j])
			}
		}
		for j := range ref.C.Data {
			if math.Float64bits(got.C.Data[j]) != math.Float64bits(ref.C.Data[j]) {
				t.Fatalf("%d procs: C entry %d = %v from a dirty state, %v from a fresh one", procs, j, got.C.Data[j], ref.C.Data[j])
			}
		}
	}
}

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

// Solve starts a crew for the team it is given and stops it before it
// returns — converged, cancelled between cycles, or failed on an injected
// fault — while the team it was handed never gets helpers of its own.
func TestSolveStopsItsCrew(t *testing.T) {
	p := chainProblem(24)
	init := molecule.Perturbed(p, 0.2, 3)
	for _, c := range []struct {
		name    string
		cancel  bool
		fault   bool
		wantErr error
	}{
		{name: "converged"},
		{name: "cancelled", cancel: true, wantErr: context.Canceled},
		{name: "fault", fault: true, wantErr: solvererr.ErrIndefinite},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.fault {
				faultinject.Set(&faultinject.Hooks{Cholesky: func(faultinject.Site) bool { return true }})
				t.Cleanup(faultinject.Reset)
			}
			root := mustBuild(t, p)
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			resident := false
			opt := Options{Control: filter.Control{Team: par.NewTeam(3), MaxCycles: 50, Ctx: ctx, OnCycle: func(cycle int, _ float64) {
				resident = resident || runtime.NumGoroutine() > base
				if c.cancel && cycle == 2 {
					cancel()
				}
			}}}
			if _, _, err := Solve(root, init, opt); !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if !resident && !c.fault {
				t.Error("no helper was running during the cycles")
			}
			waitGoroutines(t, base)
		})
	}
}
