package core

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/hier"
	"phmse/internal/molecule"
)

// boundProblem is the helix-1bp warm-job topology plus a one-sided bound
// between its first and last atoms, with the bound's upper limit at upper Å.
func boundProblem(upper float64) *molecule.Problem {
	p := molecule.WithAnchors(molecule.Helix(1), 4, 0.05)
	n := len(p.Atoms)
	cons := constraint.Of(append(p.Constraints.Rows(), constraint.DistanceBound{I: 0, J: n - 1, Upper: upper, Sigma: 1}.Row())...)
	return &molecule.Problem{Name: p.Name + "+bound", Atoms: p.Atoms, Constraints: cons, Tree: p.Tree}
}

// revalued returns p's topology with other values: every distance target
// stretched by 1 %, every standard deviation one and a half times as wide,
// and the bound's upper limit at upper Å.
func revalued(p *molecule.Problem, upper float64) *molecule.Problem {
	rows := p.Constraints.Rows()
	for i := range rows {
		switch c := &rows[i]; c.Kind {
		case constraint.KindDistance:
			c.Val[0] *= 1.01
			c.Sigma *= 1.5
		case constraint.KindPosition:
			c.Sigma *= 1.5
		case constraint.KindBound:
			c.Val[1] = upper
		}
	}
	return &molecule.Problem{Name: p.Name + "+revalued", Atoms: p.Atoms, Constraints: constraint.Of(rows...), Tree: p.Tree}
}

// reuseDigest is solutionDigest extended by the residual's bits.
func reuseDigest(sol *Solution) string {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(sol.Residual))
	return solutionDigest(sol) + hex.EncodeToString(buf[:])
}

// solveJob runs one job on est, cold from a perturbed start or warm from
// post, and returns its digest with the solution released.
func solveJob(est *Estimator, p *molecule.Problem, post *Posterior) (string, error) {
	var sol *Solution
	var err error
	if post != nil {
		sol, err = est.SolveFrom(context.Background(), post)
	} else {
		sol, err = est.Solve(molecule.Perturbed(p, 0.4, 17))
	}
	if err != nil {
		return "", err
	}
	d := reuseDigest(sol)
	sol.Release()
	return d, nil
}

// mustSolveJob is solveJob on the test's own goroutine.
func mustSolveJob(t *testing.T, est *Estimator, p *molecule.Problem, post *Posterior) string {
	t.Helper()
	d, err := solveJob(est, p, post)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A prepared tree handed back by one job serves the next job of the
// topology to the same bits as a tree built for it: two value sets of one
// topology — one whose bound is violated all along (active in every batch
// that holds it), one whose bound never binds — each solved cold and warm
// on the tree the other set's job released, match fresh builds.
func TestReusedTreeGivesTheSameBits(t *testing.T) {
	a := boundProblem(1)
	b := revalued(a, 100)
	cfg := Config{Mode: Hierarchical, Procs: 2, MaxCycles: 500}

	seed, err := New(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := seed.Solve(molecule.Perturbed(a, 0.4, 17))
	if err != nil {
		t.Fatal(err)
	}
	post := first.Posterior()
	first.Release()
	first.Release() // twice is harmless
	if len(first.Positions) != len(a.Atoms) || len(first.Variances) != len(a.Atoms) {
		t.Fatal("a released solution lost what it reports by value")
	}
	if _, err := first.Ellipsoid(0); err == nil {
		t.Fatal("a released solution still reads its covariance")
	}

	jobs := []struct {
		name string
		p    *molecule.Problem
		post *Posterior
	}{
		{"a cold", a, nil}, {"b cold", b, nil}, {"a warm", a, post}, {"b warm", b, post},
		{"b cold again", b, nil}, {"a cold again", a, nil},
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		est, err := New(j.p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustSolveJob(t, est, j.p, j.post)
	}
	if want[0] == want[1] || want[2] == want[3] {
		t.Fatal("the two value sets solve to the same bits: the test cannot tell them apart")
	}

	_, art, err := NewWithPlan(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last *hier.Node
	for i, j := range jobs {
		est, _, err := NewWithPlan(j.p, cfg, art)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && est.Root() != last {
			t.Fatalf("%s: the released tree was not reused", j.name)
		}
		last = est.Root()
		if got := mustSolveJob(t, est, j.p, j.post); got != want[i] {
			t.Errorf("%s on a reused tree: digest %s, fresh build %s", j.name, got, want[i])
		}
		est.Close()
		est.Close() // twice is harmless
	}
}

// withCons returns p with its constraints replaced by f's edit of a copy.
func withCons(p *molecule.Problem, f func([]constraint.Row) []constraint.Row) *molecule.Problem {
	cons := constraint.Of(f(p.Constraints.Rows())...)
	return &molecule.Problem{Name: p.Name + "+edited", Atoms: p.Atoms, Constraints: cons, Tree: p.Tree}
}

// A released tree is rebound only to its own topology: handed a problem
// whose constraints differ in any way the batches depend on — a node, an
// atom, their order, a Dim, a kind, the count — NewWithPlan drops the tree
// and builds a fresh one from the artifacts' grouping. Either way the solve
// is the fresh build's, bit for bit.
func TestRebindRefusesAnotherTopology(t *testing.T) {
	a := boundProblem(1)
	n := len(a.Atoms)
	last := a.Constraints.Len() - 1
	cfg := Config{Mode: Hierarchical, Procs: 1, MaxCycles: 500}
	edits := []struct {
		name    string
		p       *molecule.Problem
		rebinds bool
	}{
		{"atoms swapped", withCons(a, func(c []constraint.Row) []constraint.Row {
			c[5].Atoms[0], c[5].Atoms[1] = c[5].Atoms[1], c[5].Atoms[0]
			return c
		}), false},
		{"another atom", withCons(a, func(c []constraint.Row) []constraint.Row {
			c[last].Atoms[1] = n - 2
			return c
		}), false},
		// The kind is topology: the tree is not rebound, though the batches
		// would linearize the distance in the bound's place.
		{"another type, same atoms and dim", withCons(a, func(c []constraint.Row) []constraint.Row {
			b, _ := c[last].Bound()
			c[last] = constraint.Distance{I: b.I, J: b.J, Target: 3, Sigma: 1}.Row()
			return c
		}), false},
		{"another dim", withCons(a, func(c []constraint.Row) []constraint.Row {
			c[0] = constraint.Distance{I: c[0].Atoms[0], J: 1, Target: 1.5, Sigma: 0.1}.Row()
			return c
		}), false},
		{"one more", withCons(a, func(c []constraint.Row) []constraint.Row {
			return append(c, constraint.Distance{I: 1, J: n - 1, Target: 6, Sigma: 0.5}.Row())
		}), false},
		{"one fewer", withCons(a, func(c []constraint.Row) []constraint.Row {
			return c[:last]
		}), false},
		{"two moved", withCons(a, func(c []constraint.Row) []constraint.Row {
			c[5], c[6] = c[6], c[5]
			return c
		}), false},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			_, art, err := NewWithPlan(a, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := NewWithPlan(e.p, cfg, &PlanArtifacts{Tree: art.Tree, Mode: art.Mode, BatchSize: art.BatchSize})
			if err != nil {
				t.Fatal(err)
			}
			want := mustSolveJob(t, fresh, e.p, nil)

			held, _, err := NewWithPlan(a, cfg, art)
			if err != nil {
				t.Fatal(err)
			}
			old := held.Root()
			held.Close()
			est, _, err := NewWithPlan(e.p, cfg, art)
			if err != nil {
				t.Fatal(err)
			}
			if rebound := est.Root() == old; rebound != e.rebinds {
				t.Fatalf("tree rebound: %v, want %v", rebound, e.rebinds)
			}
			if got := mustSolveJob(t, est, e.p, nil); got != want {
				t.Fatalf("digest %s, fresh build %s", got, want)
			}
		})
	}
}

// Artifacts serve only the mode they were built for: a hierarchical plan
// never hands its tree to a flat estimator of the same topology and batch
// size, nor a flat one its leaf to a hierarchical estimator.
func TestPlanArtifactsKeepTheirMode(t *testing.T) {
	p := boundProblem(1)
	for _, c := range []struct{ from, to Mode }{{Hierarchical, Flat}, {Flat, Hierarchical}} {
		_, art, err := NewWithPlan(p, Config{Mode: c.from}, nil)
		if err != nil {
			t.Fatal(err)
		}
		est, got, err := NewWithPlan(p, Config{Mode: c.to}, art)
		if err != nil {
			t.Fatal(err)
		}
		if got == art || got.Mode != c.to || est.Root().IsLeaf() != (c.to == Flat) {
			t.Fatalf("%v plan served a %v estimator: artifacts for %v, one leaf %v", c.from, c.to, got.Mode, est.Root().IsLeaf())
		}
	}
}

// Jobs of one topology running at once each hold a tree of their own, and
// hand them back to the one list: every job solves to the bits of a job
// run alone.
func TestConcurrentWarmJobsShareTheArtifacts(t *testing.T) {
	a := boundProblem(1)
	b := revalued(a, 100)
	cfg := Config{Mode: Hierarchical, Procs: 1, MaxCycles: 500}
	_, art, err := NewWithPlan(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	problems := []*molecule.Problem{a, b}
	want := make([]string, len(problems))
	for i, p := range problems {
		est, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustSolveJob(t, est, p, nil)
	}
	const workers, jobs = 4, 3
	var wg sync.WaitGroup
	got := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < jobs; k++ {
				p := problems[(w+k)%2]
				est, _, err := NewWithPlan(p, cfg, art)
				if err != nil {
					t.Error(err)
					return
				}
				d, err := solveJob(est, p, nil)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], d)
				est.Close()
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for k, d := range got[w] {
			if i := (w + k) % 2; d != want[i] {
				t.Errorf("worker %d job %d: digest %s, alone %s", w, k, d, want[i])
			}
		}
	}
	art.mu.Lock()
	defer art.mu.Unlock()
	if len(art.free) > workers {
		t.Fatalf("%d trees kept for %d jobs at once", len(art.free), workers)
	}
}
