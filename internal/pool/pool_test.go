package pool

import (
	"math"
	"sync"
	"testing"
)

func TestGetPutRoundTrip(t *testing.T) {
	b := Get(100)
	if len(b) != 100 {
		t.Fatalf("Get(100) returned len %d", len(b))
	}
	if cap(b) < 100 {
		t.Fatalf("Get(100) returned cap %d", cap(b))
	}
	for i := range b {
		b[i] = float64(i)
	}
	Put(b)
	// The recycled buffer may come back dirty; only length and capacity
	// are guaranteed.
	c := Get(64)
	if len(c) != 64 || cap(c) < 64 {
		t.Fatalf("Get(64) after Put: len %d cap %d", len(c), cap(c))
	}
}

func TestGetZeroedIsZero(t *testing.T) {
	b := Get(128)
	for i := range b {
		b[i] = math.NaN()
	}
	Put(b)
	z := GetZeroed(128)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed left %g at %d", v, i)
		}
	}
}

func TestGetMatZeroed(t *testing.T) {
	m := GetMat(8, 8)
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	PutMat(m)
	if m.Data != nil || m.Rows != 0 {
		t.Fatalf("PutMat left matrix usable: %+v", m)
	}
	z := GetMat(8, 8)
	if z.Rows != 8 || z.Cols != 8 || z.Stride != 8 {
		t.Fatalf("GetMat shape: %+v", z)
	}
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetMat left %g at %d", v, i)
		}
	}
}

func TestPutViewRefused(t *testing.T) {
	m := GetMat(4, 8)
	v := m.View(0, 0, 4, 4) // non-compact stride: must not be pooled
	PutMat(v)
	if v.Data == nil {
		t.Fatal("PutMat accepted a strided view")
	}
	PutMat(m)
}

func TestDisableBypassesPool(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	if Enabled() {
		t.Fatal("Enabled() after SetEnabled(false)")
	}
	b := Get(32)
	for i := range b {
		b[i] = 1
	}
	Put(b)
	c := Get(32)
	for i, v := range c {
		if v != 0 {
			t.Fatalf("disabled Get returned recycled data %g at %d", v, i)
		}
	}
}

func TestZeroAndNegativeSizes(t *testing.T) {
	if b := Get(0); b != nil {
		t.Fatalf("Get(0) = %v", b)
	}
	if b := Get(-3); b != nil {
		t.Fatalf("Get(-3) = %v", b)
	}
	Put(nil) // must not panic
}

// Concurrent Get/Put churn; run under -race in CI to pin down the pool's
// thread safety.
func TestConcurrentChurn(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 + (g*37+i*13)%300
				b := GetZeroed(n)
				for j := range b {
					b[j] = float64(g)
				}
				// Every element must still be ours before returning it: a
				// pool that double-leased a buffer shows up here.
				for j, v := range b {
					if v != float64(g) {
						t.Errorf("buffer shared across goroutines: got %g at %d", v, j)
						return
					}
				}
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}

func TestStatsCount(t *testing.T) {
	before := Snapshot()
	b := Get(16)
	Put(b)
	Get(16)
	after := Snapshot()
	if after.Gets-before.Gets < 2 || after.Puts-before.Puts < 1 {
		t.Fatalf("stats did not advance: %+v -> %+v", before, after)
	}
}
