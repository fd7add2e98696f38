// Package par provides the shared-memory parallel runtime used by the
// estimator: processor teams with fork-join loop partitioning (static row
// blocks, claimed triangle chunks), team splitting for assigning processor
// groups to subtrees of the structure hierarchy (the new axis of
// parallelism exposed by the hierarchical decomposition), and the shared
// processor budget the serving layer admits jobs against (ProcPool).
//
// A Team models a fixed group of processors, mirroring the paper's static
// processor-assignment scheme: every node of the structure hierarchy is
// computed by the team assigned to it, and a team may be split into disjoint
// sub-teams that proceed independently on disjoint subtrees.
package par

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Team is a group of logical processors that execute fork-join parallel
// regions. The zero value is not usable; construct with NewTeam. A Team with
// size 1 executes everything inline with no synchronization, so sequential
// runs pay no parallel overhead.
type Team struct {
	size int
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

// Run executes body(id) for id = 0..Size()-1, one goroutine per member, and
// waits for all of them to finish. For a team of one the body runs inline.
func (t *Team) Run(body func(id int)) {
	if t.size == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(t.size - 1)
	for id := 1; id < t.size; id++ {
		go func(id int) {
			defer wg.Done()
			body(id)
		}(id)
	}
	body(0)
	wg.Wait()
}

// For partitions the index range [0, n) statically into Size() nearly equal
// contiguous chunks and executes body(lo, hi) for each chunk in parallel.
// Static contiguous partitioning preserves the data locality the paper's
// kernels rely on (each processor touches a contiguous block of rows).
func (t *Team) For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := t.size
	if p > n {
		p = n
	}
	if p == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for id := 1; id < p; id++ {
		lo, hi := Chunk(n, p, id)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	lo, hi := Chunk(n, p, 0)
	body(lo, hi)
	wg.Wait()
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
// the team's members claiming chunks front to back until none is left. Row
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
	p := t.size
	if p > n {
		p = n
	}
	if p == 1 {
		body(0, n)
		return
	}
	chunks := min(p*triChunksPerProc, max(p, n/triMinRows))
	var next atomic.Int64
	claim := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= chunks {
				return
			}
			if lo, hi := evenTriChunk(n, chunks, k); lo < hi {
				body(lo, hi)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for id := 1; id < p; id++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
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

// Split divides the team into two disjoint sub-teams of sizes k and
// Size()−k. Both must end up non-empty.
func (t *Team) Split(k int) (*Team, *Team) {
	if k <= 0 || k >= t.size {
		panic(fmt.Sprintf("par: split %d of team of %d", k, t.size))
	}
	return &Team{size: k}, &Team{size: t.size - k}
}

// SplitN divides the team into len(sizes) disjoint sub-teams with the given
// sizes, which must be positive and sum to Size().
func (t *Team) SplitN(sizes []int) []*Team {
	total := 0
	teams := make([]*Team, len(sizes))
	for i, s := range sizes {
		if s < 1 {
			panic(fmt.Sprintf("par: sub-team size %d < 1", s))
		}
		total += s
		teams[i] = &Team{size: s}
	}
	if total != t.size {
		panic(fmt.Sprintf("par: sub-team sizes sum to %d, team has %d", total, t.size))
	}
	return teams
}

// Parallel runs the given thunks concurrently and waits for all of them.
// It is the fork-join primitive used to launch sibling subtrees.
func Parallel(thunks ...func()) {
	if len(thunks) == 0 {
		return
	}
	if len(thunks) == 1 {
		thunks[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(thunks) - 1)
	for _, f := range thunks[1:] {
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	thunks[0]()
	wg.Wait()
}
