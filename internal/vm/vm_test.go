package vm

import (
	"math"
	"strings"
	"testing"

	"phmse/internal/hier"
	"phmse/internal/machine"
	"phmse/internal/molecule"
	"phmse/internal/trace"
)

// preparedHelix builds and prepares a helix tree once per size.
func preparedHelix(t testing.TB, bp int) *hier.Node {
	t.Helper()
	h := molecule.Helix(bp)
	root, err := hier.Build(h.Tree, &h.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Prepare(16); err != nil {
		t.Fatal(err)
	}
	return root
}

func TestBatchOpsShapes(t *testing.T) {
	ops := batchOps(16, 300, 96)
	if len(ops) != 6 {
		t.Fatalf("ops = %d", len(ops))
	}
	byClass := map[trace.Class]machine.Op{}
	for _, op := range ops {
		byClass[op.Class] = op
		if op.Flops <= 0 || op.Workset <= 0 {
			t.Fatalf("non-positive op: %+v", op)
		}
	}
	// Spot-check the flop formulas.
	if got := byClass[trace.Chol].Flops; got != 16.0*16*16/3 {
		t.Fatalf("chol flops %g", got)
	}
	if got := byClass[trace.MatMat].Flops; got != 2.0*300*300*16 {
		t.Fatalf("m-m flops %g", got)
	}
	if got := byClass[trace.Solve].Flops; got != 2.0*300*16*16 {
		t.Fatalf("sys flops %g", got)
	}
	if got := byClass[trace.DenseSparse].Flops; got != 2.0*300*96+2.0*96*16 {
		t.Fatalf("d-s flops %g", got)
	}
}

func TestRunSequentialDeterministic(t *testing.T) {
	root := preparedHelix(t, 2)
	mach := machine.DASH()
	a := Run(root, mach, 1, Static)
	b := Run(root, mach, 1, Static)
	if a.Wall != b.Wall || a.Ops != b.Ops || a.ClassBusy != b.ClassBusy {
		t.Fatal("virtual-time run not deterministic")
	}
	if a.Wall <= 0 || a.Ops == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	// At one processor, wall equals total busy.
	if math.Abs(a.Wall-a.ClassBusy.Total()) > 1e-9*a.Wall {
		t.Fatalf("wall %g != busy %g at NP=1", a.Wall, a.ClassBusy.Total())
	}
}

func TestRunParallelFasterAndAccounted(t *testing.T) {
	root := preparedHelix(t, 8)
	mach := machine.DASH()
	serial := Run(root, mach, 1, Static)
	prev := serial.Wall
	for _, np := range []int{2, 4, 8, 16, 32} {
		r := Run(root, mach, np, Static)
		if r.Wall >= prev {
			t.Fatalf("NP=%d wall %g not below previous %g", np, r.Wall, prev)
		}
		prev = r.Wall
		// Busy time can exceed serial busy (overheads) but not wildly.
		if r.ClassBusy.Total() > 3*serial.ClassBusy.Total() {
			t.Fatalf("NP=%d busy exploded: %g vs %g", np, r.ClassBusy.Total(), serial.ClassBusy.Total())
		}
		// Wall is at least the critical-path lower bound busy/np.
		if r.Wall < r.ClassBusy.Total()/float64(np)-1e-9 {
			t.Fatalf("NP=%d wall %g below busy/np %g", np, r.Wall, r.ClassBusy.Total()/float64(np))
		}
	}
}

func TestHelixSpeedupShape(t *testing.T) {
	// Reproduces the Table 3 qualitative shape: good speedup at powers of
	// two, a dip at NP=6 relative to the neighboring powers of two, and
	// m-m dominating the time distribution.
	root := preparedHelix(t, 16)
	mach := machine.DASH()
	speedup := map[int]float64{}
	base := Run(root, mach, 1, Static).Wall
	for _, np := range []int{4, 6, 8, 32} {
		speedup[np] = base / Run(root, mach, np, Static).Wall
	}
	if speedup[32] < 18 || speedup[32] > 32 {
		t.Fatalf("NP=32 speedup %g outside the plausible DASH band", speedup[32])
	}
	// The non-power-of-two dip: efficiency at 6 clearly below 4 and 8.
	eff := func(np int) float64 { return speedup[np] / float64(np) }
	if eff(6) >= eff(4) || eff(6) >= eff(8)*0.98 {
		t.Fatalf("no power-of-two dip: eff(4)=%.2f eff(6)=%.2f eff(8)=%.2f", eff(4), eff(6), eff(8))
	}
	// m-m dominates the class distribution (Table 3).
	r := Run(root, mach, 1, Static)
	cs := r.ClassSeconds()
	if cs[trace.MatMat] < 0.5*r.Wall {
		t.Fatalf("m-m share %.2f of %.2f too small", cs[trace.MatMat], r.Wall)
	}
}

func TestRibo30SNoDip(t *testing.T) {
	// The ribosome tree's high branching factor lets the static scheduler
	// divide processors evenly: no power-of-two dips (Table 4).
	h := molecule.Ribo30S(1996)
	root, err := hier.Build(h.Tree, &h.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.Prepare(16); err != nil {
		t.Fatal(err)
	}
	mach := machine.DASH()
	base := Run(root, mach, 1, Static).Wall
	eff := func(np int) float64 {
		return base / Run(root, mach, np, Static).Wall / float64(np)
	}
	e6, e8 := eff(6), eff(8)
	if e6 < e8*0.9 {
		t.Fatalf("unexpected dip for ribo30S: eff(6)=%.3f eff(8)=%.3f", e6, e8)
	}
}

func TestChallengeFasterSameShape(t *testing.T) {
	root := preparedHelix(t, 8)
	d1 := Run(root, machine.DASH(), 1, Static).Wall
	c1 := Run(root, machine.Challenge(), 1, Static).Wall
	if c1 >= d1 {
		t.Fatalf("Challenge (%g) not faster than DASH (%g)", c1, d1)
	}
	ratio := d1 / c1
	if ratio < 2 || ratio > 5 {
		t.Fatalf("machine speed ratio %g outside the paper's ~3×", ratio)
	}
	s := c1 / Run(root, machine.Challenge(), 16, Static).Wall
	if s < 10 || s > 16 {
		t.Fatalf("Challenge NP=16 speedup %g outside the paper's band", s)
	}
}

// The flat organization's per-constraint cost grows quadratically with
// molecule size while the hierarchical organization grows far more slowly —
// the Table 1 / Figure 5 result.
func TestHierarchicalBeatsFlatAndGapWidens(t *testing.T) {
	mach := machine.DASH()
	prevSpeedup := 0.0
	for _, bp := range []int{1, 2, 4, 8} {
		h := molecule.Helix(bp)
		hierWall := Run(preparedHelix(t, bp), mach, 1, Static).Wall
		// The flat organization is the tree of one leaf holding every atom.
		flat, err := hier.Build(&molecule.Group{AtomIDs: h.Tree.Atoms()}, &h.Constraints)
		if err != nil {
			t.Fatal(err)
		}
		if err := flat.Prepare(16); err != nil {
			t.Fatal(err)
		}
		flatWall := Run(flat, mach, 1, Static).Wall
		speedup := flatWall / hierWall
		if bp > 1 && speedup <= prevSpeedup {
			t.Fatalf("%d bp: hierarchical advantage %g did not grow (prev %g)", bp, speedup, prevSpeedup)
		}
		prevSpeedup = speedup
	}
	if prevSpeedup < 4 {
		t.Fatalf("8 bp hierarchical speedup %g too small", prevSpeedup)
	}
}

func TestNodeOpsCountMatchesBatches(t *testing.T) {
	root := preparedHelix(t, 1)
	n := 0
	root.Walk(func(m *hier.Node) { n += len(m.Batches()) })
	total := 0
	root.Walk(func(m *hier.Node) { total += len(nodeOps(m)) })
	if total != 6*n {
		t.Fatalf("ops %d != 6×batches %d", total, n)
	}
}

// The §5 dynamic re-grouping extension removes the static scheme's
// power-of-two dip on the helix.
func TestDynamicReschedulingRemovesDip(t *testing.T) {
	root := preparedHelix(t, 16)
	mach := machine.DASH()
	base := Run(root, mach, 1, Static).Wall

	static6 := Run(root, mach, 6, Static).Wall
	dyn6 := Run(root, mach, 6, Dynamic).Wall
	if dyn6 >= static6 {
		t.Fatalf("dynamic (%g) not faster than static (%g) at NP=6", dyn6, static6)
	}
	effStatic := base / static6 / 6
	effDyn := base / dyn6 / 6
	if effDyn < effStatic+0.05 {
		t.Fatalf("dynamic efficiency %.3f did not clearly beat static %.3f", effDyn, effStatic)
	}
	// At a power of two the static scheme is already balanced; dynamic
	// should be in the same ballpark (within 20%).
	static8 := Run(root, mach, 8, Static).Wall
	dyn8 := Run(root, mach, 8, Dynamic).Wall
	if ratio := dyn8 / static8; ratio > 1.2 || ratio < 0.7 {
		t.Fatalf("NP=8 dynamic/static ratio %.2f", ratio)
	}
	// Sanity: accounting present and deterministic.
	again := Run(root, mach, 6, Dynamic)
	if again.Wall != dyn6 || again.ClassBusy.Total() <= 0 || again.Spans != nil {
		t.Fatal("dynamic run not deterministic or unaccounted")
	}
}

func TestTraceMatchesRunAndExposesImbalance(t *testing.T) {
	root := preparedHelix(t, 8)
	mach := machine.DASH()
	res := Run(root, mach, 3, Static)
	spans := res.Spans
	if len(spans) != root.Count() {
		t.Fatalf("spans = %d, nodes = %d", len(spans), root.Count())
	}
	// Spans are within the wall clock, ordered, and the root span ends last.
	var rootSpan *Span
	for i := range spans {
		s := &spans[i]
		if s.Start < 0 || s.End > res.Wall+1e-9 || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
		if i > 0 && s.Start < spans[i-1].Start {
			t.Fatalf("span %d starts at %g before span %d at %g", i, s.Start, i-1, spans[i-1].Start)
		}
		if s.Node == root {
			rootSpan = s
		}
	}
	if rootSpan == nil || rootSpan.End < res.Wall-1e-9 {
		t.Fatalf("root span %+v does not close the run", rootSpan)
	}
	if rootSpan.Procs != 3 || rootSpan.End <= rootSpan.Start {
		t.Fatalf("root span %+v", rootSpan)
	}
	// Every node's operations run inside its span on its team, so the
	// spans account for all the run's busy time.
	busy := 0.0
	for _, s := range spans {
		busy += (s.End - s.Start) * float64(s.Procs)
	}
	if math.Abs(busy-res.ClassBusy.Total()) > 1e-9*busy {
		t.Fatalf("spans hold %g busy processor-seconds, the run %g", busy, res.ClassBusy.Total())
	}
	// With 3 procs over two equal subtrees the two children finish at
	// different times: the root's start equals the slower child's end.
	c0, c1 := root.Children[0], root.Children[1]
	var e0, e1 float64
	for _, s := range spans {
		if s.Node == c0 {
			e0 = s.End
		}
		if s.Node == c1 {
			e1 = s.End
		}
	}
	if e0 == e1 {
		t.Fatal("expected imbalance between 2-proc and 1-proc subtrees")
	}
	if got := max(e0, e1); got > rootSpan.Start+1e-9 {
		t.Fatalf("root started at %g before children finished at %g", rootSpan.Start, got)
	}

	text := FormatTimeline(root, spans, res.Wall, 1)
	if !strings.Contains(text, "#") || !strings.Contains(text, "procs") {
		t.Fatalf("timeline:\n%s", text)
	}
}
