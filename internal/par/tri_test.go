package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTriChunkCoverage verifies that the triangular chunks tile [0, n)
// exactly: contiguous, disjoint, in order.
func TestTriChunkCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 97, 512} {
		for _, p := range []int{1, 2, 3, 4, 7, 16, 64} {
			prev := 0
			for id := 0; id < p; id++ {
				lo, hi := TriChunk(n, p, id)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d p=%d id=%d: chunk [%d,%d) after %d", n, p, id, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d p=%d: chunks end at %d", n, p, prev)
			}
		}
	}
}

// TestTriChunkBalance asserts the per-worker lower-triangle area stays
// within 10% of the ideal n(n+1)/2p split — the equal-work property that
// plain row chunking lacks (its last worker carries ~2× the area). Pairs
// where a single row exceeds 10% of a chunk's area (n < 20p) are skipped:
// no contiguous-row partition can do better than row granularity.
func TestTriChunkBalance(t *testing.T) {
	for _, n := range []int{64, 97, 256, 510, 2048} {
		for _, p := range []int{2, 3, 4, 7, 8, 16} {
			if n < 20*p {
				continue
			}
			ideal := float64(n) * float64(n+1) / 2 / float64(p)
			for id := 0; id < p; id++ {
				lo, hi := TriChunk(n, p, id)
				// Area of rows [lo, hi) of the lower triangle.
				area := float64(hi)*float64(hi+1)/2 - float64(lo)*float64(lo+1)/2
				if dev := area/ideal - 1; dev > 0.10 || dev < -0.10 {
					t.Errorf("n=%d p=%d id=%d: area %.0f vs ideal %.0f (%.1f%% off)",
						n, p, id, area, ideal, 100*dev)
				}
			}
		}
	}
}

// TestEvenTriChunkTiles verifies the chunks ForTri hands out: contiguous,
// in order, ending at n, every interior boundary a multiple of the m-m
// kernel's row tile — and that the smallest chunk worth cutting holds at
// least two such tiles.
func TestEvenTriChunkTiles(t *testing.T) {
	if triMinRows < 2*triRowTile {
		t.Fatalf("triMinRows = %d is under two row tiles of %d", triMinRows, triRowTile)
	}
	for _, n := range []int{1, 2, 3, 7, 16, 97, 512, 2598} {
		for _, p := range []int{1, 2, 3, 7, 64, 96} {
			prev := 0
			for id := 0; id < p; id++ {
				lo, hi := evenTriChunk(n, p, id)
				if lo != prev || hi < lo || (hi < n && hi%triRowTile != 0) {
					t.Fatalf("n=%d p=%d id=%d: chunk [%d,%d) after %d", n, p, id, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d p=%d: chunks end at %d", n, p, prev)
			}
		}
	}
}

// TestForTriSweepDoesNotWaitForAStalledMember stalls whoever claims the
// first chunk until every other row is done. Chunks are small and claimed,
// not dealt in halves, so the other member finishes the rest of the
// triangle alone and the stalled member holds up a sliver of it.
func TestForTriSweepDoesNotWaitForAStalledMember(t *testing.T) {
	const n = 1024
	var others, firstHi atomic.Int64
	restDone := make(chan struct{})
	var once sync.Once
	check := func() {
		if hi := firstHi.Load(); hi > 0 && others.Load() == n-hi {
			once.Do(func() { close(restDone) })
		}
	}
	NewTeam(2).ForTri(n, func(lo, hi int) {
		if lo > 0 {
			others.Add(int64(hi - lo))
			check()
			return
		}
		if 8*hi*(hi+1) > n*(n+1) {
			t.Errorf("first chunk is rows [0,%d), over an eighth of the triangle: dealt, not claimed", hi)
		}
		firstHi.Store(int64(hi))
		check()
		select {
		case <-restDone:
		case <-time.After(10 * time.Second):
			t.Errorf("%d of %d rows still unclaimed while one member is stalled", n-hi-int(others.Load()), n-hi)
		}
	})
}

// TestForTriCoversOnce runs ForTri and checks every row is visited exactly
// once across workers.
func TestForTriCoversOnce(t *testing.T) {
	for _, n := range []int{1, 5, 33, 100, 1037} {
		for _, p := range []int{1, 2, 4, 7, 150} {
			var mu sync.Mutex
			seen := make([]int, n)
			NewTeam(p).ForTri(n, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d p=%d: row %d visited %d times", n, p, i, c)
				}
			}
		}
	}
}

func TestForTriEmpty(t *testing.T) {
	called := false
	NewTeam(4).ForTri(0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}
