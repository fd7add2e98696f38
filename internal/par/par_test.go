package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewTeamRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0)
}

func TestTeamForCoversRangeExactlyOnce(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		for _, n := range []int{0, 1, 5, 17, 100} {
			team := NewTeam(p)
			counts := make([]int32, n)
			team.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("p=%d n=%d: index %d visited %d times", p, n, i, c)
				}
			}
		}
	}
}

// Property: Chunk tiles [0, n) exactly with nearly equal chunk sizes.
func TestChunkProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -(seed + 1)
		}
		n := int(seed%1000 + 1)
		p := int(seed%7 + 1)
		prev := 0
		minSz, maxSz := 1<<30, 0
		for id := 0; id < p; id++ {
			lo, hi := Chunk(n, p, id)
			if lo != prev || hi < lo {
				return false
			}
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prev = hi
		}
		return prev == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelRunsAll(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		team := NewTeam(p)
		var n int64
		team.Parallel(
			func() { atomic.AddInt64(&n, 1) },
			func() { atomic.AddInt64(&n, 10) },
			func() { atomic.AddInt64(&n, 100) },
		)
		if n != 111 {
			t.Fatalf("p=%d: n = %d", p, n)
		}
		team.Parallel() // no thunks: must not hang
		team.Parallel(func() { atomic.AddInt64(&n, 1000) })
		if n != 1111 {
			t.Fatalf("p=%d: n = %d", p, n)
		}
	}
}

// Two subtree groups post loops at once, and whoever runs the first piece
// of group A's loop holds it until some other member has run another piece
// of that loop. A team of two has two members, one of which runs group A,
// so the loop completes only if the member that ran group B — done with its
// own group and its own loop — claims pieces of A's.
func TestFinishedGroupClaimsAnotherGroupsLoop(t *testing.T) {
	const n = 1024
	team, stop := NewTeam(2).Start()
	defer stop()
	bStarted, second := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	var once sync.Once
	var rows [2]atomic.Int64
	team.Parallel(
		func() {
			select {
			case <-bStarted:
			case <-time.After(10 * time.Second):
				t.Error("group B never started beside group A")
			}
			team.ForTri(n, func(lo, hi int) {
				rows[0].Add(int64(hi - lo))
				if held.CompareAndSwap(false, true) {
					select {
					case <-second:
					case <-time.After(10 * time.Second):
						t.Error("no second member ran a piece of group A's loop")
					}
					return
				}
				once.Do(func() { close(second) })
			})
		},
		func() {
			close(bStarted)
			team.ForTri(n, func(lo, hi int) { rows[1].Add(int64(hi - lo)) })
		},
	)
	if rows[0].Load() != n || rows[1].Load() != n {
		t.Fatalf("rows covered: group A %d, group B %d, want %d each", rows[0].Load(), rows[1].Load(), n)
	}
}

// waitGoroutines waits until no more than want goroutines are left,
// collecting garbage between looks so that finalizers run.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// A started crew's helpers live until stop, which returns once they have
// exited — however many the team's width asks for, at most GOMAXPROCS.
func TestStartedCrewStopsItsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, p := range []int{2, 3, 7} {
		team, stop := NewTeam(p).Start()
		team.ForTri(512, func(lo, hi int) {})
		want := max(1, min(p, runtime.GOMAXPROCS(0))-1)
		if got := runtime.NumGoroutine() - base; got > want {
			t.Errorf("team of %d at GOMAXPROCS %d: %d helpers, want at most %d", p, runtime.GOMAXPROCS(0), got, want)
		}
		stop()
		waitGoroutines(t, base)
	}
	one, stop := NewTeam(1).Start()
	one.For(10, func(lo, hi int) {})
	stop()
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("a team of one started %d goroutines", got-base)
	}
}

// A team nobody started gets a crew at its first wide loop, and its parked
// helpers exit once the team is garbage.
func TestUnstartedTeamHelpersExitWithTheTeam(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		team := NewTeam(2)
		var rows atomic.Int64
		team.ForTri(256, func(lo, hi int) { rows.Add(int64(hi - lo)) })
		if rows.Load() != 256 {
			t.Fatalf("rows covered %d, want 256", rows.Load())
		}
	}()
	waitGoroutines(t, base)
}

// A loop still completes on a crew that has been told to stop — as the crew
// of a team nobody started is when the team becomes garbage while its last
// loop runs: the poster runs whatever pieces no helper is left to claim.
func TestLoopAfterStopRunsOnThePoster(t *testing.T) {
	team, stop := NewTeam(3).Start()
	stop()
	var rows atomic.Int64
	team.ForTri(300, func(lo, hi int) { rows.Add(int64(hi - lo)) })
	team.For(300, func(lo, hi int) { rows.Add(int64(hi - lo)) })
	if rows.Load() != 600 {
		t.Fatalf("rows covered %d, want 600", rows.Load())
	}
}

// A piece that panics, on whichever member claims it, reaches the poster:
// its caller's recover sees the value once every piece has finished, and
// the crew — helpers included — serves the next region. Every piece waits
// until a second member has started one, so a helper always runs a
// panicking piece — a panic that, unrecovered on the helper's goroutine,
// would end the process.
func TestTeamPanicReachesPoster(t *testing.T) {
	type boom struct{ region string }
	for _, width := range []int{2, 3} {
		team, stop := NewTeam(width).Start()
		t.Cleanup(stop)
		for _, region := range []struct {
			name string
			rows int64
			run  func(body func(lo, hi int))
		}{
			{"For", 64, func(body func(lo, hi int)) { team.For(64, body) }},
			{"ForTri", 256, func(body func(lo, hi int)) { team.ForTri(256, body) }},
			{"Parallel", 3, func(body func(lo, hi int)) {
				team.Parallel(func() { body(0, 1) }, func() { body(1, 2) }, func() { body(2, 3) })
			}},
		} {
			var started, finished atomic.Int64
			value := &boom{region.name}
			got := func() (v any) {
				defer func() { v = recover() }()
				region.run(func(lo, hi int) {
					defer finished.Add(1)
					started.Add(1)
					for deadline := time.Now().Add(5 * time.Second); started.Load() < 2 && time.Now().Before(deadline); {
						runtime.Gosched()
					}
					panic(value)
				})
				return nil
			}()
			if got != value {
				t.Fatalf("width %d, %s: recovered %v, want %v", width, region.name, got, value)
			}
			if started.Load() < 2 || finished.Load() != started.Load() {
				t.Fatalf("width %d, %s: %d pieces started, %d finished", width, region.name, started.Load(), finished.Load())
			}
			var rows atomic.Int64
			region.run(func(lo, hi int) { rows.Add(int64(hi - lo)) })
			if rows.Load() != region.rows {
				t.Fatalf("width %d, %s after a panic: rows covered %d, want %d", width, region.name, rows.Load(), region.rows)
			}
		}
	}
}

func BenchmarkTeamForOverhead(b *testing.B) {
	team := NewTeam(4)
	sink := make([]float64, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		team.For(len(sink), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				sink[j]++
			}
		})
	}
}
