package hier

import (
	"math"
	"sync"
	"testing"

	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/pool"
)

// solveChain runs the hierarchical solve of the shared chain problem from
// perturbed initial positions and returns the final positions.
func solveChain(n int) ([]geom.Vec3, error) {
	p := chainProblem(n)
	root, err := Build(p.Tree, p.Constraints)
	if err != nil {
		return nil, err
	}
	init := make([]geom.Vec3, n)
	for i, a := range p.Atoms {
		init[i] = a.Pos.Add(geom.Vec3{0.3 * float64(i%5), -0.2, 0.1 * float64(i%3)})
	}
	state, _, err := Solve(root, init, Options{Control: filter.Control{Tol: 1e-8, MaxCycles: 200}})
	if err != nil {
		return nil, err
	}
	out := make([]geom.Vec3, n)
	for i, a := range root.Atoms {
		out[a] = state.Pos(i)
	}
	return out, nil
}

// poisonPool seeds the buffer pool with NaN so any pooled node state or
// workspace read before being written surfaces immediately.
func poisonPool() {
	for _, n := range []int{8, 32, 64, 128, 256, 1024, 4096} {
		b := pool.Get(n)
		for i := range b {
			b[i] = math.NaN()
		}
		pool.Put(b)
	}
}

// The hierarchical solve through poisoned pooled node states must produce
// bitwise the same positions as one through fresh allocations: the pass
// fully overwrites X and relies on C coming back zeroed.
func TestHierPooledSolveBitwiseMatchesUnpooled(t *testing.T) {
	pool.SetEnabled(false)
	ref, err := solveChain(24)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetEnabled(true)
	defer pool.SetEnabled(true)
	poisonPool()
	got, err := solveChain(24)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("atom %d: pooled %v != unpooled %v", i, got[i], ref[i])
		}
	}
}

// Concurrent hierarchical solves sharing the pools must stay isolated:
// each must reproduce the reference bitwise. Run under -race in CI.
func TestHierConcurrentPooledSolvesIsolated(t *testing.T) {
	pool.SetEnabled(false)
	ref, err := solveChain(24)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetEnabled(true)
	defer pool.SetEnabled(true)
	poisonPool()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := solveChain(24)
				if err != nil {
					t.Errorf("concurrent pooled hier solve failed: %v", err)
					return
				}
				for j := range ref {
					if got[j] != ref[j] {
						t.Errorf("concurrent pooled hier solve diverged at atom %d: %v != %v", j, got[j], ref[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
