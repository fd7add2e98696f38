// Package par provides the shared-memory parallel runtime used by the
// estimator: processor teams with fork-join loop partitioning (static row
// blocks, claimed triangle chunks) and concurrent sibling subtrees — the
// new axis of parallelism exposed by the hierarchical decomposition — run
// on a crew of resident workers.
//
// A Team is a width, which decides how finely loops are cut and how many
// members there are to claim the pieces. What runs the pieces is the team's
// crew (crew.go): the poster of each loop plus resident helper goroutines,
// every one of them claiming pieces of whatever is posted. A member whose
// subtree has finished helps the subtrees still running: processors are
// not bound to subtrees.
package par

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Team is a group of logical processors that execute fork-join parallel
// regions. The zero value is not usable; construct with NewTeam. A Team with
// size 1 executes everything inline with no synchronization, so sequential
// runs pay no parallel overhead.
type Team struct {
	size int
	once sync.Once
	crew *crew // set by Start, or on the first post of a team nobody started
}

// NewTeam returns a team of p logical processors. p must be at least 1.
func NewTeam(p int) *Team {
	if p < 1 {
		panic(fmt.Sprintf("par: team size %d < 1", p))
	}
	return &Team{size: p}
}

// Size returns the number of logical processors in the team.
func (t *Team) Size() int { return t.size }

// Start returns a team of the same size whose parallel regions run on a
// crew started now — the caller of each region plus up to Size()−1 resident
// helpers — and the function that stops the crew, which returns once every
// helper has exited. A solve starts one when it starts and stops it when it
// returns. A team of one has no crew: Start returns it and a stop that does
// nothing.
//
// A team nobody started gets a crew of its own at its first wide region;
// its helpers park when idle and exit once the team is garbage.
func (t *Team) Start() (*Team, func()) {
	if t.size == 1 {
		return t, func() {}
	}
	c := newCrew(t.size)
	return &Team{size: t.size, crew: c}, c.stop
}

// crewOf returns the team's crew, starting one for a team nobody started.
func (t *Team) crewOf() *crew {
	t.once.Do(func() {
		if t.crew == nil {
			t.crew = newCrew(t.size)
			runtime.SetFinalizer(t, func(t *Team) { t.crew.quit() })
		}
	})
	return t.crew
}

// For partitions the index range [0, n) statically into Size() nearly equal
// contiguous chunks and executes body(lo, hi) for each chunk in parallel.
// Static contiguous partitioning preserves the data locality the paper's
// kernels rely on (each processor touches a contiguous block of rows).
func (t *Team) For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := min(t.size, n)
	if p == 1 {
		body(0, n)
		return
	}
	t.crewOf().run(region{body: body, n: n, pieces: p})
}

// triChunksPerProc is how many area-balanced chunks ForTri cuts per team
// member, triMinRows the fewest rows worth a chunk of its own, and
// triRowTile the multiple its interior chunk boundaries are rounded down to:
// the row-block height of mat's m-m microkernel (four rows per step of the
// AVX2 kernel, two of the portable one), so that no chunk but the last ends
// on a partial block. triMinRows is at least two tiles.
const (
	triChunksPerProc = 32
	triMinRows       = 8
	triRowTile       = 4
)

// ForTri cuts the row range [0, n) of an n×n lower triangle into contiguous
// chunks of nearly equal *area* and executes body(lo, hi) once for each,
// the crew's members claiming chunks front to back until none is left. Row
// i of the lower triangle holds i+1 elements, so an equal-row split would
// give the last rows about twice the work of the first.
//
// There are many more chunks than members (triChunksPerProc each, while
// rows last), so the sweep ends when the team's combined capacity has done
// the work, not when its slowest member has done a fixed half of it: a
// member that starts late, is preempted, or runs on a processor in a slow
// phase claims fewer chunks and the others claim more. Which member runs
// which chunk varies from call to call; what each chunk computes does not,
// so results are the same as a serial sweep's. Chunk boundaries are
// multiples of triRowTile, which keeps kernels that tile rows in blocks on
// their fast path.
func (t *Team) ForTri(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := min(t.size, n)
	if p == 1 {
		body(0, n)
		return
	}
	chunks := min(p*triChunksPerProc, max(p, n/triMinRows))
	t.crewOf().run(region{body: body, n: n, pieces: chunks, tri: true})
}

// Parallel runs the thunks concurrently and returns when all of them have
// finished: the fork-join primitive that launches sibling subtrees. Each
// thunk is one piece of the crew's board, claimed in the order given, so a
// member claims a whole subtree, and every subtree runs its loops on this
// same team — a member whose subtree finishes first claims pieces of the
// others'. A team of one runs the thunks in order.
func (t *Team) Parallel(thunks ...func()) {
	if t.size == 1 || len(thunks) < 2 {
		for _, f := range thunks {
			f()
		}
		return
	}
	body := func(lo, hi int) {
		for _, f := range thunks[lo:hi] {
			f()
		}
	}
	t.crewOf().run(region{body: body, n: len(thunks), pieces: len(thunks), groups: true})
}

// evenTriChunk is TriChunk with the interior boundaries rounded down to a
// multiple of triRowTile. Rounding is monotone, so the chunks still tile
// [0, n) in order; one that rounds to empty is skipped by the caller.
func evenTriChunk(n, p, id int) (lo, hi int) {
	even := func(r int) int {
		if r < n {
			r -= r % triRowTile
		}
		return r
	}
	lo, hi = TriChunk(n, p, id)
	return even(lo), even(hi)
}

// TriChunk returns the half-open row range [lo, hi) of the id-th of p
// contiguous chunks of the rows [0, n) of an n×n lower triangle, balanced by
// triangle area rather than row count. The boundary after chunk k is the row
// r whose prefix area r(r+1)/2 is closest to k/p of the total n(n+1)/2.
func TriChunk(n, p, id int) (lo, hi int) {
	return triBound(n, p, id), triBound(n, p, id+1)
}

// triBound inverts the prefix-area function r ↦ r(r+1)/2 at k/p of the total
// triangle area. It is nondecreasing in k, so chunks are well ordered.
func triBound(n, p, k int) int {
	if k <= 0 {
		return 0
	}
	if k >= p {
		return n
	}
	target := float64(n) * float64(n+1) / 2 * float64(k) / float64(p)
	r := int(math.Floor((math.Sqrt(1+8*target) - 1) / 2))
	if r < 0 {
		r = 0
	}
	if r > n {
		r = n
	}
	// The float inversion lands within one row of the optimum; pick the
	// boundary whose exact prefix area is closest to the target.
	area := func(r int) float64 { return float64(r) * float64(r+1) / 2 }
	for r < n && math.Abs(area(r+1)-target) < math.Abs(area(r)-target) {
		r++
	}
	return r
}

// Chunk returns the half-open range [lo, hi) of the id-th of p nearly equal
// contiguous chunks of [0, n). The first n%p chunks are one element longer.
func Chunk(n, p, id int) (lo, hi int) {
	q, r := n/p, n%p
	lo = id*q + min(id, r)
	hi = lo + q
	if id < r {
		hi++
	}
	return lo, hi
}
