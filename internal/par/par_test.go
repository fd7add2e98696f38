package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewTeamRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0)
}

func TestTeamRunVisitsAllIDs(t *testing.T) {
	for _, p := range []int{1, 2, 7} {
		team := NewTeam(p)
		var seen sync.Map
		team.Run(func(id int) { seen.Store(id, true) })
		for id := 0; id < p; id++ {
			if _, ok := seen.Load(id); !ok {
				t.Fatalf("p=%d: worker %d never ran", p, id)
			}
		}
	}
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

func TestSplit(t *testing.T) {
	team := NewTeam(10)
	a, b := team.Split(3)
	if a.Size() != 3 || b.Size() != 7 {
		t.Fatalf("Split sizes %d, %d", a.Size(), b.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Split(10) of team of 10 did not panic")
		}
	}()
	team.Split(10)
}

func TestSplitN(t *testing.T) {
	team := NewTeam(9)
	subs := team.SplitN([]int{2, 3, 4})
	if len(subs) != 3 || subs[0].Size() != 2 || subs[1].Size() != 3 || subs[2].Size() != 4 {
		t.Fatal("SplitN sizes wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched SplitN did not panic")
		}
	}()
	team.SplitN([]int{4, 4})
}

func TestParallelRunsAll(t *testing.T) {
	var n int64
	Parallel(
		func() { atomic.AddInt64(&n, 1) },
		func() { atomic.AddInt64(&n, 10) },
		func() { atomic.AddInt64(&n, 100) },
	)
	if n != 111 {
		t.Fatalf("n = %d", n)
	}
	Parallel() // no thunks: must not hang
	Parallel(func() { atomic.AddInt64(&n, 1000) })
	if n != 1111 {
		t.Fatalf("n = %d", n)
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
