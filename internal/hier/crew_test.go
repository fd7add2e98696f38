package hier

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"phmse/internal/faultinject"
	"phmse/internal/filter"
	"phmse/internal/molecule"
	"phmse/internal/par"
	"phmse/internal/pool"
)

// poisonRootStates hands the pool four dim-dimensional states full of NaN
// — in X and in both triangles of C — and returns a test of whether a
// state is backed by one of them.
func poisonRootStates(dim int) func(*filter.State) bool {
	owned := map[*float64]bool{}
	var dirty []*filter.State
	for i := 0; i < 4; i++ {
		s := filter.GetPooledState(dim)
		for j := range s.X {
			s.X[j] = math.NaN()
		}
		for j := range s.C.Data {
			s.C.Data[j] = math.NaN()
		}
		owned[&s.C.Data[0]] = true
		dirty = append(dirty, s)
	}
	for _, s := range dirty {
		filter.ReleasePooledState(s)
	}
	return func(s *filter.State) bool { return owned[&s.C.Data[0]] }
}

// sameLowerBits compares x and the lower triangle of C bit for bit.
func sameLowerBits(got, want *filter.State) error {
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Errorf("x[%d] = %v, want %v", j, got.X[j], want.X[j])
		}
	}
	for i := 0; i < want.Dim(); i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(got.C.At(i, j)) != math.Float64bits(want.C.At(i, j)) {
				return fmt.Errorf("C[%d][%d] = %v, want %v", i, j, got.C.At(i, j), want.C.At(i, j))
			}
		}
	}
	return nil
}

// upperPoisoned reports the first strict-upper entry of C that no longer
// holds poisonRootStates' NaN, bit for bit.
func upperPoisoned(s *filter.State) error {
	nan := math.Float64bits(math.NaN())
	for i := 0; i < s.Dim(); i++ {
		for j := i + 1; j < s.Dim(); j++ {
			if math.Float64bits(s.C.At(i, j)) != nan {
				return fmt.Errorf("C[%d][%d] = %v was written", i, j, s.C.At(i, j))
			}
		}
	}
	return nil
}

// fromPoisonedPool runs solve on a pool primed with poisonRootStates
// until the state it returns is one of them.
func fromPoisonedPool(t *testing.T, dim int, solve func() *filter.State) *filter.State {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		owned := poisonRootStates(dim)
		if s := solve(); owned(s) {
			return s
		}
	}
	t.Fatal("the pool never handed back a poisoned state")
	return nil
}

// Every entry of the root state's lower triangle is cleared by the one node
// that owns it, before that node's pass, and nothing writes the upper
// triangle: a root state the pool hands back full of NaN, in both triangles
// and in X, gives the same x and lower triangle as fresh memory and keeps
// its NaN above the diagonal, bit for bit — through one pass and through a
// whole solve, whether the subtrees run one after another or concurrently.
func TestDirtyRootStateGivesTheSameBits(t *testing.T) {
	p := chainProblem(24)
	init := molecule.Perturbed(p, 0.2, 3)
	for _, procs := range []int{1, 2, 3, 7} {
		root := mustBuild(t, p)
		if err := root.Prepare(6); err != nil {
			t.Fatal(err)
		}
		opt := Options{Control: filter.Control{BatchSize: 6, InitVar: 100, MaxCycles: 3, Team: par.NewTeam(procs)}}
		for _, path := range []struct {
			name string
			run  func() *filter.State
		}{
			{"UpdatePass", func() *filter.State {
				s, err := onePass(root, init, opt)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}},
			{"Solve", func() *filter.State {
				s, _, err := Solve(root, init, opt)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}},
		} {
			pool.SetEnabled(false)
			ref := path.run()
			pool.SetEnabled(true)
			got := fromPoisonedPool(t, root.StateDim(), path.run)
			if err := sameLowerBits(got, ref); err != nil {
				t.Fatalf("%s, %d procs, dirty vs fresh state: %v", path.name, procs, err)
			}
			if err := upperPoisoned(got); err != nil {
				t.Fatalf("%s, %d procs: %v", path.name, procs, err)
			}
		}
	}
}

// helpers counts the crew helpers alive from the goroutine profile: the
// process's other goroutines, an earlier test's still exiting or the
// runtime's own, come and go on their own schedule. A helper not yet
// scheduled has no frame of par.(*crew).help on its stack, so each
// goroutine is told by its creator, newCrew, which starts helpers and
// nothing else.
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

// waitHelpers waits, for at most 10 s, until no more than want crew helpers
// are left: a stopped helper has signalled its exit before its goroutine is
// gone.
func waitHelpers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for helpers() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d crew helpers still running, want at most %d", helpers(), want)
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
		{name: "fault", fault: true, wantErr: filter.ErrIndefinite},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.fault {
				faultinject.Set(&faultinject.Hooks{Cholesky: func(faultinject.Site) bool { return true }})
				t.Cleanup(faultinject.Reset)
			}
			root := mustBuild(t, p)
			// An earlier solve's helper may still be leaving. Counted in
			// base, it could be the one a new helper replaces in the
			// profile, and then no count ever exceeds base.
			waitHelpers(t, 0)
			base := helpers()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			resident := false
			opt := Options{Control: filter.Control{Team: par.NewTeam(3), MaxCycles: 50, Ctx: ctx, OnCycle: func(cycle int, _ float64) {
				resident = resident || helpers() > base
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
			waitHelpers(t, base)
		})
	}
}
