package core

import (
	"testing"

	"phmse/internal/molecule"
)

// BenchmarkNewRibo30S times estimator construction on the one large
// workload as the bench ladder's setup_s configures it (hierarchical, two
// processors): build, assign, regroup, prepare, static assignment.
func BenchmarkNewRibo30S(b *testing.B) {
	p := molecule.Ribo30S(1996)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(p, Config{Mode: Hierarchical, Procs: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
