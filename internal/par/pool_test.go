package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestProcPoolAccounting(t *testing.T) {
	p := NewProcPool(8)
	if p.Capacity() != 8 || p.InUse() != 0 || p.Leases() != 0 {
		t.Fatalf("fresh pool: cap %d inUse %d leases %d", p.Capacity(), p.InUse(), p.Leases())
	}
	l, err := p.Acquire(context.Background(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 4 {
		t.Fatalf("lease size %d", l.Size())
	}
	if p.InUse() != 4 || p.Leases() != 1 {
		t.Fatalf("after acquire: inUse %d leases %d", p.InUse(), p.Leases())
	}
	l.Release()
	l.Release() // idempotent
	if p.InUse() != 0 || p.Leases() != 0 {
		t.Fatalf("after release: inUse %d leases %d", p.InUse(), p.Leases())
	}
}

func TestProcPoolElasticShrink(t *testing.T) {
	p := NewProcPool(8)
	wide, err := p.Acquire(context.Background(), 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Size() != 6 {
		t.Fatalf("wide grant %d, want 6", wide.Size())
	}
	// Only 2 free: an 8-wide request with min 1 shrinks to 2 immediately.
	small, err := p.Acquire(context.Background(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() != 2 {
		t.Fatalf("shrunk grant %d, want 2", small.Size())
	}
	wide.Release()
	small.Release()
}

func TestProcPoolBlocksBelowMin(t *testing.T) {
	p := NewProcPool(4)
	hold, _ := p.Acquire(context.Background(), 3, 1)
	done := make(chan *Lease)
	go func() {
		l, err := p.Acquire(context.Background(), 2, 2)
		if err != nil {
			t.Error(err)
		}
		done <- l
	}()
	select {
	case <-done:
		t.Fatal("Acquire(min=2) granted with only 1 free")
	case <-time.After(50 * time.Millisecond):
	}
	hold.Release()
	select {
	case l := <-done:
		if l.Size() != 2 {
			t.Fatalf("grant %d, want 2", l.Size())
		}
		l.Release()
	case <-time.After(time.Second):
		t.Fatal("Acquire did not wake after release")
	}
}

func TestProcPoolFIFO(t *testing.T) {
	p := NewProcPool(4)
	hold, _ := p.Acquire(context.Background(), 4, 4)

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := p.Acquire(context.Background(), 4, 4)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Release()
		}(i)
		// Wait for this waiter to queue before launching the next, so the
		// queue order is exactly [0 1 2].
		for p.Waiting() < i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	hold.Release()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("service order %v, want FIFO [0 1 2]", order)
		}
	}
}

func TestProcPoolFIFOPreventsStarvation(t *testing.T) {
	// A wide request queued behind a busy pool must not be overtaken by a
	// later narrow request (Acquire checks the waiter queue before granting).
	p := NewProcPool(4)
	hold, _ := p.Acquire(context.Background(), 4, 4)

	wideGranted := make(chan struct{})
	go func() {
		l, err := p.Acquire(context.Background(), 4, 4)
		if err == nil {
			close(wideGranted)
			l.Release()
		}
	}()
	for p.Waiting() < 1 {
		time.Sleep(time.Millisecond)
	}

	narrowGranted := make(chan struct{})
	go func() {
		l, err := p.Acquire(context.Background(), 1, 1)
		if err == nil {
			close(narrowGranted)
			l.Release()
		}
	}()
	for p.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}

	hold.Release()
	select {
	case <-wideGranted:
	case <-time.After(time.Second):
		t.Fatal("wide waiter starved")
	}
	select {
	case <-narrowGranted:
	case <-time.After(time.Second):
		t.Fatal("narrow waiter never granted")
	}
}

func TestProcPoolContextCancel(t *testing.T) {
	p := NewProcPool(2)
	hold, _ := p.Acquire(context.Background(), 2, 2)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx, 2, 2)
		errc <- err
	}()
	for p.Waiting() < 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled Acquire did not return")
	}
	if p.Waiting() != 0 {
		t.Fatalf("waiter left behind after cancel: %d", p.Waiting())
	}

	// A cancelled head waiter must pass the baton: a later waiter still
	// gets served when capacity frees up.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	got := make(chan *Lease, 1)
	go func() {
		l, err := p.Acquire(context.Background(), 1, 1)
		if err != nil {
			t.Error(err)
			return
		}
		got <- l
	}()
	go func() {
		p.Acquire(ctx2, 2, 2) //nolint:errcheck
	}()
	for p.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel2()
	hold.Release()
	select {
	case l := <-got:
		l.Release()
	case <-time.After(time.Second):
		t.Fatal("baton not passed after head waiter cancelled")
	}
}

func TestProcPoolClamping(t *testing.T) {
	p := NewProcPool(4)
	// want and min above capacity clamp down; zero/negative clamp to 1.
	l, err := p.Acquire(context.Background(), 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 4 {
		t.Fatalf("clamped grant %d, want 4", l.Size())
	}
	l.Release()
	l2, err := p.Acquire(context.Background(), 0, -3)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Size() != 1 {
		t.Fatalf("zero-want grant %d, want 1", l2.Size())
	}
	l2.Release()
}

// Concurrent churn: leases never oversubscribe capacity. Run under -race.
func TestProcPoolConcurrentChurn(t *testing.T) {
	const capacity = 6
	p := NewProcPool(capacity)
	var peak, cur atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				want := 1 + (g+i)%4
				l, err := p.Acquire(context.Background(), want, 1)
				if err != nil {
					t.Error(err)
					return
				}
				n := cur.Add(int64(l.Size()))
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				cur.Add(-int64(l.Size()))
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	if peak.Load() > capacity {
		t.Fatalf("oversubscribed: peak %d > capacity %d", peak.Load(), capacity)
	}
	if p.InUse() != 0 || p.Leases() != 0 {
		t.Fatalf("pool not drained: inUse %d leases %d", p.InUse(), p.Leases())
	}
}
