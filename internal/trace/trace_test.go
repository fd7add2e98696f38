package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestClassString(t *testing.T) {
	want := []string{"d-s", "chol", "sys", "m-m", "m-v", "vec"}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() != want[c] {
			t.Fatalf("class %d = %q, want %q", c, c.String(), want[c])
		}
	}
	if !strings.Contains(Class(99).String(), "99") {
		t.Fatal("out-of-range class string")
	}
}

func TestTimesTotalAddScale(t *testing.T) {
	a := Times{1, 2, 3, 4, 5, 6}
	if a.Total() != 21 {
		t.Fatalf("Total = %g", a.Total())
	}
	b := a.Add(Times{1, 1, 1, 1, 1, 1})
	if b.Total() != 27 {
		t.Fatalf("Add total = %g", b.Total())
	}
	if a.Total() != 21 {
		t.Fatal("Add mutated receiver")
	}
	c := a.Scale(2)
	if c.Total() != 42 {
		t.Fatalf("Scale total = %g", c.Total())
	}
}

func TestTimesFormat(t *testing.T) {
	s := Times{1, 2, 3, 4, 5, 6}.Format()
	for _, name := range []string{"d-s=1.00", "chol=2.00", "vec=6.00"} {
		if !strings.Contains(s, name) {
			t.Fatalf("Format %q missing %q", s, name)
		}
	}
}

func TestCollectorAccumulates(t *testing.T) {
	var c Collector
	c.Add(MatMat, 1.5, 100)
	c.Add(MatMat, 0.5, 50)
	c.Add(Chol, 2, 10)
	times := c.Times()
	if times[MatMat] != 2 || times[Chol] != 2 {
		t.Fatalf("times = %v", times)
	}
	flops := c.Flops()
	if flops[MatMat] != 150 || flops[Chol] != 10 {
		t.Fatalf("flops = %v", flops)
	}
	c.Reset()
	if c.Times().Total() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestCollectorTimedRunsFunc(t *testing.T) {
	var c Collector
	ran := false
	c.Timed(Solve, 5, func() { ran = true })
	if !ran {
		t.Fatal("Timed did not run f")
	}
	if c.Flops()[Solve] != 5 {
		t.Fatal("Timed did not record flops")
	}
	if c.Times()[Solve] < 0 {
		t.Fatal("negative duration")
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Add(VecOp, 1, 1)
	ran := false
	c.Timed(VecOp, 1, func() { ran = true })
	if !ran {
		t.Fatal("nil collector did not run f")
	}
	if c.Times().Total() != 0 || c.Flops()[VecOp] != 0 {
		t.Fatal("nil collector returned non-zero state")
	}
	c.Reset()
}

func TestCollectorConcurrent(t *testing.T) {
	var c Collector
	var wg sync.WaitGroup
	const workers = 8
	const each = 1000
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Add(VecOp, 0.001, 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Flops()[VecOp]; got != workers*each {
		t.Fatalf("flops = %g, want %d", got, workers*each)
	}
}

func TestTallyFlushesOnce(t *testing.T) {
	var c Collector
	var tl Tally
	runs := 0
	tl.Timed(MatMat, 100, func() { runs++ })
	tl.Timed(MatMat, 50, func() { runs++ })
	tl.Timed(Chol, 10, func() { runs++ })
	if runs != 3 || c.Flops()[MatMat] != 0 {
		t.Fatalf("runs = %d, collector flops before the flush = %v", runs, c.Flops())
	}
	tl.FlushTo(&c)
	if f := c.Flops(); f[MatMat] != 150 || f[Chol] != 10 {
		t.Fatalf("flops = %v", f)
	}
	if times := c.Times(); times[MatMat] < 0 || times[Chol] < 0 {
		t.Fatalf("times = %v", times)
	}
	tl.FlushTo(&c)
	if c.Flops()[MatMat] != 150 {
		t.Fatal("a flushed tally was added twice")
	}
	tl.Timed(VecOp, 1, func() {})
	tl.FlushTo(nil)
	if tl != (Tally{}) {
		t.Fatal("FlushTo(nil) did not clear the tally")
	}
}

// BenchmarkTimed times the accounting around an empty step: through the
// Collector (one clock read either side and a lock) and through a Tally
// flushed every nine steps, as a batch update does.
func BenchmarkTimed(b *testing.B) {
	b.Run("collector", func(b *testing.B) {
		var c Collector
		for i := 0; i < b.N; i++ {
			c.Timed(MatMat, 1, func() {})
		}
	})
	b.Run("tally", func(b *testing.B) {
		var c Collector
		var tl Tally
		for i := 0; i < b.N; i++ {
			tl.Timed(MatMat, 1, func() {})
			if i%9 == 8 {
				tl.FlushTo(&c)
			}
		}
		tl.FlushTo(&c)
	})
}
