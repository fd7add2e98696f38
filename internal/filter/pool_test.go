package filter

import (
	"math"
	"sync"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/pool"
)

// triangleProblem is the 3-4-5 triangle solve used across the pooling
// tests: small enough to run in microseconds, nonlinear enough that a
// stale value leaking into a workspace would derail convergence.
func triangleProblem() ([]geom.Vec3, []constraint.Constraint) {
	init := []geom.Vec3{{0, 0, 0}, {2.5, 0.4, 0}, {0.3, 3.5, 0.2}}
	cons := []constraint.Constraint{
		constraint.Position{I: 0, Target: geom.Vec3{0, 0, 0}, Sigma: 0.01},
		constraint.Distance{I: 0, J: 1, Target: 3, Sigma: 0.01},
		constraint.Distance{I: 0, J: 2, Target: 4, Sigma: 0.01},
		constraint.Distance{I: 1, J: 2, Target: 5, Sigma: 0.01},
	}
	return init, cons
}

func solveTriangleState() (*State, Result, error) {
	init, cons := triangleProblem()
	s := NewState(init, 0)
	s.ResetCovariance(100)
	res, err := Solve(s, cons, Control{Tol: 1e-8, MaxCycles: 300}, false)
	return s, res, err
}

func solveTriangle(t *testing.T) *State {
	t.Helper()
	s, res, err := solveTriangleState()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	return s
}

// poisonPool seeds the buffer pool with NaN-filled buffers of the sizes a
// small solve leases, so any kernel that reads a pooled buffer before
// writing it produces a NaN the assertions below catch.
func poisonPool() {
	for _, n := range []int{1, 3, 9, 16, 27, 81, 128, 256, 512} {
		b := pool.Get(n)
		for i := range b {
			b[i] = math.NaN()
		}
		pool.Put(b)
	}
}

// A solve through poisoned pooled workspaces must produce bitwise the
// same estimate as one through fresh allocations: every pooled buffer is
// fully overwritten before it is read, so reuse cannot perturb a single
// bit of the arithmetic.
func TestPooledSolveBitwiseMatchesUnpooled(t *testing.T) {
	pool.SetEnabled(false)
	ref := solveTriangle(t)
	pool.SetEnabled(true)
	defer pool.SetEnabled(true)
	poisonPool()
	got := solveTriangle(t)
	for i := range ref.X {
		if got.X[i] != ref.X[i] {
			t.Fatalf("X[%d]: pooled %v != unpooled %v", i, got.X[i], ref.X[i])
		}
	}
	if !got.C.Equal(ref.C, 0) {
		t.Fatal("covariances differ bitwise between pooled and unpooled solves")
	}
}

// A workspace released with NaN-poisoned scratch must not contaminate the
// updater that leases it next.
func TestReleasedWorkspaceIsolation(t *testing.T) {
	u := &Updater{}
	ws := u.scratch()
	ws.aBuf = append(ws.aBuf[:0], math.NaN(), math.NaN(), math.NaN())
	ws.dx = append(ws.dx[:0], math.NaN())
	u.ReleaseWorkspace()
	if u.ws != nil {
		t.Fatal("ReleaseWorkspace left the workspace attached")
	}

	s := solveTriangle(t)
	for _, v := range s.X {
		if math.IsNaN(v) {
			t.Fatal("poisoned recycled workspace leaked into a solve")
		}
	}
	// Releasing twice (or with nothing leased) must be harmless.
	u.ReleaseWorkspace()
}

func TestPooledStateRoundTrip(t *testing.T) {
	s := GetPooledState(9)
	if len(s.X) != 9 || s.C.Rows != 9 || s.C.Cols != 9 {
		t.Fatalf("shape: X %d, C %dx%d", len(s.X), s.C.Rows, s.C.Cols)
	}
	for i, v := range s.C.Data {
		if v != 0 {
			t.Fatalf("pooled C not zeroed at %d: %v", i, v)
		}
	}
	// Poison and release: the next pooled state must still come back with
	// a zeroed covariance.
	for i := range s.X {
		s.X[i] = math.NaN()
	}
	for i := range s.C.Data {
		s.C.Data[i] = math.NaN()
	}
	ReleasePooledState(s)
	if s.X != nil || s.C != nil {
		t.Fatal("ReleasePooledState left buffers attached")
	}
	ReleasePooledState(nil) // must not panic

	s2 := GetPooledState(9)
	for i, v := range s2.C.Data {
		if v != 0 {
			t.Fatalf("recycled C not zeroed at %d: %v", i, v)
		}
	}
	ReleasePooledState(s2)
}

// Concurrent solves sharing the process-wide pools must each converge to
// the same answer as an isolated solve — two jobs never observe each
// other's workspaces. Run under -race in CI.
func TestConcurrentPooledSolvesIsolated(t *testing.T) {
	pool.SetEnabled(false)
	ref := solveTriangle(t)
	pool.SetEnabled(true)
	defer pool.SetEnabled(true)
	poisonPool()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, res, err := solveTriangleState()
				if err != nil || !res.Converged {
					t.Errorf("concurrent pooled solve failed: %v %+v", err, res)
					return
				}
				for j := range ref.X {
					if got.X[j] != ref.X[j] {
						t.Errorf("concurrent pooled solve diverged at X[%d]: %v != %v", j, got.X[j], ref.X[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
