package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// crew is what a wide team's parallel regions run on: the goroutine that
// posts each region and up to Size()−1 resident helpers. A region is posted
// to one board as a task cut into pieces; every member — helper or poster —
// claims pieces of whatever is on the board, and a poster returns once every
// piece of its own task has finished, helping with the others' while it
// waits. So a member whose subtree is done works on the loops of the
// subtrees still running instead of idling, and a loop never waits for a
// goroutine to be started for it.
//
// Idle helpers spin for spinFor, then park until the next post. Spinning
// covers the short serial gaps between one batch's loops, where a parked
// helper would pay a wake-up per loop; parking keeps a crew that has nothing
// to do from holding a processor.
type crew struct {
	mu    sync.Mutex
	wake  sync.Cond // parked members: broadcast on a post, on stop, and when a task a parked poster waits for finishes
	board []*task   // posted tasks, oldest first; a poster removes its own once every piece is claimed
	// posts counts posts, stopped is set once: the two things an idle member
	// watches, written under mu.
	posts   atomic.Uint64
	stopped atomic.Bool
	helpers sync.WaitGroup
}

// spinFor is how long an idle member spins before it parks.
const spinFor = 50 * time.Microsecond

// region is what a team posts: body(lo, hi) over each piece's row range —
// a loop's chunks, or sibling subtrees, one piece each.
type region struct {
	body   func(lo, hi int)
	n      int
	pieces int
	tri    bool // pieces are ForTri's area-balanced chunks, not For's equal blocks
	// groups marks Parallel's region: its pieces are whole subtrees,
	// so a member waiting for a loop's last pieces does not take one.
	groups bool
}

// task is a region on the board. Tasks are recycled: refs counts the
// poster and every member that took the task from the board, and whoever
// drops the last reference returns it to taskPool, so a posted region
// allocates nothing.
type task struct {
	region
	next   atomic.Int64 // pieces claimed so far
	left   atomic.Int64 // pieces not yet finished
	refs   atomic.Int32
	parked atomic.Bool // the poster is parked waiting for left to reach zero
	// panicked holds the first value a piece panicked with, which the
	// poster raises again once every piece has finished: a panic on a
	// helper's goroutine would otherwise end the process, past any recover
	// the poster's caller has.
	panicked atomic.Pointer[panicValue]
}

// panicValue boxes a recovered panic value.
type panicValue struct{ v any }

var taskPool = sync.Pool{New: func() any { return new(task) }}

// piece returns the row range of piece k.
func (t *region) piece(k int) (lo, hi int) {
	if t.tri {
		return evenTriChunk(t.n, t.pieces, k)
	}
	return Chunk(t.n, t.pieces, k)
}

// newCrew starts the helpers of a team of the given size: one fewer than
// the team, and never more than GOMAXPROCS, but at least one, so that a
// member that blocks inside a piece never leaves the rest of a loop to no
// one.
func newCrew(size int) *crew {
	c := &crew{}
	c.wake.L = &c.mu
	h := max(1, min(size, runtime.GOMAXPROCS(0))-1)
	c.helpers.Add(h)
	for range h {
		go c.help()
	}
	return c
}

// quit tells the helpers to exit once the board has nothing left to claim.
func (c *crew) quit() {
	c.mu.Lock()
	c.stopped.Store(true)
	c.wake.Broadcast()
	c.mu.Unlock()
}

// stop is quit, returning once every helper has exited.
func (c *crew) stop() {
	c.quit()
	c.helpers.Wait()
}

// help is a helper's life: claim and run pieces while there are any, idle
// when there are none, exit when the crew stops.
func (c *crew) help() {
	defer c.helpers.Done()
	for {
		seen := c.posts.Load()
		if t := c.claimable(false); t != nil {
			c.work(t)
			release(t)
			continue
		}
		if c.stopped.Load() {
			return
		}
		c.idle(seen, nil)
	}
}

// run posts r, claims its pieces alongside the helpers, and returns once
// all of them have finished, claiming pieces of other tasks while it waits
// — of loops only, when r is a loop, so that a poster about to continue
// does not take on a whole subtree first. If a piece panicked, whoever ran
// it, run panics with the first such value once every piece has finished.
func (c *crew) run(r region) {
	t := taskPool.Get().(*task)
	t.region = r
	t.next.Store(0)
	t.left.Store(int64(r.pieces))
	t.refs.Store(1)
	t.parked.Store(false)
	t.panicked.Store(nil)
	c.mu.Lock()
	c.board = append(c.board, t)
	c.posts.Add(1)
	c.wake.Broadcast()
	c.mu.Unlock()

	c.work(t)
	c.unpost(t)
	for t.left.Load() != 0 {
		seen := c.posts.Load()
		if o := c.claimable(!r.groups); o != nil {
			c.work(o)
			release(o)
			continue
		}
		c.idle(seen, t)
	}
	p := t.panicked.Load()
	release(t)
	if p != nil {
		panic(p.v)
	}
}

// release drops a reference to t, recycling it with the last one.
func release(t *task) {
	if t.refs.Add(-1) == 0 {
		t.body = nil
		taskPool.Put(t)
	}
}

// unpost removes a task whose pieces are all claimed from the board.
func (c *crew) unpost(t *task) {
	c.mu.Lock()
	for i := len(c.board) - 1; i >= 0; i-- {
		if c.board[i] == t {
			c.board = append(c.board[:i], c.board[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// claimable returns the oldest task on the board with a piece left to
// claim, skipping subtrees when loopsOnly is set, with a reference
// the caller releases; nil if there is none.
func (c *crew) claimable(loopsOnly bool) *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.board {
		if t.next.Load() < int64(t.pieces) && !(loopsOnly && t.groups) {
			t.refs.Add(1)
			return t
		}
	}
	return nil
}

// work claims and runs pieces of t until none is left to claim. A piece
// that panics counts as finished like any other.
func (c *crew) work(t *task) {
	for {
		k := int(t.next.Add(1)) - 1
		if k >= t.pieces {
			return
		}
		if lo, hi := t.piece(k); lo < hi {
			t.runPiece(lo, hi)
		}
		if t.left.Add(-1) == 0 && t.parked.Load() {
			c.mu.Lock()
			c.wake.Broadcast()
			c.mu.Unlock()
		}
	}
}

// runPiece runs the body over one piece, keeping the task's first panic
// value for its poster instead of letting it unwind this member.
func (t *task) runPiece(lo, hi int) {
	defer func() {
		if v := recover(); v != nil {
			t.panicked.CompareAndSwap(nil, &panicValue{v})
		}
	}()
	t.body(lo, hi)
}

// idle waits until something is posted after the count seen, the crew
// stops, or — for a poster — the task it waits for has finished: spinning
// for spinFor, then parked. The parked flag and left are written and read in
// opposite orders by idle and work, so either the poster sees the last
// piece finish or the member finishing it sees the poster parked and wakes
// it.
func (c *crew) idle(seen uint64, await *task) {
	done := func() bool {
		return c.posts.Load() != seen || c.stopped.Load() || await != nil && await.left.Load() == 0
	}
	for start := time.Now(); time.Since(start) < spinFor; {
		if done() {
			return
		}
		runtime.Gosched()
	}
	c.mu.Lock()
	if await != nil {
		await.parked.Store(true)
	}
	for !done() {
		c.wake.Wait()
	}
	c.mu.Unlock()
}
