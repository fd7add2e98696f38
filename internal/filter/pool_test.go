package filter

import (
	"math"
	"testing"
)

func TestPooledStateRoundTrip(t *testing.T) {
	s := GetPooledState(9)
	if len(s.X) != 9 || s.C.Rows != 9 || s.C.Cols != 9 || s.C.Stride != 9 || len(s.C.Data) != 81 {
		t.Fatalf("shape: X %d, C %dx%d stride %d over %d", len(s.X), s.C.Rows, s.C.Cols, s.C.Stride, len(s.C.Data))
	}
	// Poison and release: the next pooled state has the same shape, and
	// (pooled buffers come back dirty) its contents are the caller's to
	// write.
	for i := range s.X {
		s.X[i] = math.NaN()
	}
	for i := range s.C.Data {
		s.C.Data[i] = math.NaN()
	}
	ReleasePooledState(s)
	if s.X != nil || s.C != nil {
		t.Fatal("ReleasePooledState left buffers attached")
	}
	ReleasePooledState(nil) // must not panic

	s2 := GetPooledState(9)
	if len(s2.X) != 9 || s2.C.Rows != 9 || s2.C.Cols != 9 || s2.C.Stride != 9 || len(s2.C.Data) != 81 {
		t.Fatalf("recycled shape: X %d, C %dx%d stride %d over %d", len(s2.X), s2.C.Rows, s2.C.Cols, s2.C.Stride, len(s2.C.Data))
	}
	ReleasePooledState(s2)
}
