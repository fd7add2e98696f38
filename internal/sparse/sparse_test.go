package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phmse/internal/mat"
	"phmse/internal/par"
)

// randSparse builds a random m×n sparse matrix with up to k non-zeros per
// row at distinct columns.
func randSparse(rng *rand.Rand, m, n, k int) *Matrix {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		nnz := 1 + rng.Intn(k)
		if nnz > n {
			nnz = n
		}
		perm := rng.Perm(n)[:nnz]
		vals := make([]float64, nnz)
		for j := range vals {
			vals[j] = rng.NormFloat64()
		}
		b.AddRow(perm, vals)
	}
	return b.Build()
}

func randDense(rng *rand.Rand, r, c int) *mat.Mat {
	m := mat.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddRow([]int{0, 3}, []float64{1, 2})
	b.AddRow(nil, nil)
	b.AddRow([]int{2}, []float64{5})
	m := b.Build()
	if m.rows != 3 || m.cols != 4 || m.NNZ() != 3 {
		t.Fatalf("shape %d×%d nnz %d", m.rows, m.cols, m.NNZ())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[1] != 3 || vals[1] != 2 {
		t.Fatalf("row 0: %v %v", cols, vals)
	}
	cols, _ = m.Row(1)
	if len(cols) != 0 {
		t.Fatal("row 1 not empty")
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(2)
	b.AddRow([]int{0}, []float64{1})
	b.Reset()
	b.AddRow([]int{1}, []float64{2})
	m := b.Build()
	if m.rows != 1 || m.NNZ() != 1 {
		t.Fatalf("after reset: rows %d nnz %d", m.rows, m.NNZ())
	}
}

func TestBuilderColumnRangePanics(t *testing.T) {
	b := NewBuilder(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column did not panic")
		}
	}()
	b.AddRow([]int{2}, []float64{1})
}

func TestDense(t *testing.T) {
	b := NewBuilder(3)
	b.AddRow([]int{1}, []float64{4})
	b.AddRow([]int{0, 2}, []float64{1, 2})
	d := b.Build().Dense()
	want := mat.FromRows([][]float64{{0, 4, 0}, {1, 0, 2}})
	if !d.Equal(want, 0) {
		t.Fatalf("Dense = %v", d)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := randSparse(rng, 7, 11, 4)
	x := make([]float64, 11)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 7)
	h.MulVec(got, x)
	want := make([]float64, 7)
	mat.MulVec(want, h.Dense(), x)
	mat.SubVec(want, want, got)
	if mat.Norm2(want) > 1e-12 {
		t.Fatal("MulVec mismatch")
	}
}

func TestMulVecTAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := randSparse(rng, 7, 11, 4)
	y := make([]float64, 7)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	got := make([]float64, 11)
	h.MulVecT(got, y)
	want := make([]float64, 11)
	mat.MulVec(want, h.Dense().T(), y)
	mat.SubVec(want, want, got)
	if mat.Norm2(want) > 1e-12 {
		t.Fatal("MulVecT mismatch")
	}
}

// Property: H·A computed sparsely matches the dense computation.
func TestMulDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, p := 1+rng.Intn(10), 1+rng.Intn(15), 1+rng.Intn(8)
		h := randSparse(rng, m, n, 5)
		a := randDense(rng, n, p)
		got := mat.New(m, p)
		h.MulDensePar(par.NewTeam(1+rng.Intn(4)), got, a)
		want := mat.New(m, p)
		mat.Mul(want, h.Dense(), a)
		return got.Equal(want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randSym returns a random, exactly symmetric n×n matrix.
func randSym(rng *rand.Rand, n int) *mat.Mat {
	c := randDense(rng, n, n)
	c.Symmetrize()
	return c
}

// Property: the d-s products on any team are, bit for bit, those of a team
// of one.
func TestParallelMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(12), 1+rng.Intn(20)
		one, team := par.NewTeam(1), par.NewTeam(1+rng.Intn(6))
		h := randSparse(rng, m, n, 6)
		c := randSym(rng, n)

		serialCT, parCT := mat.New(n, m), mat.New(n, m)
		h.DenseMulTSymPar(one, serialCT, c)
		h.DenseMulTSymPar(team, parCT, c)
		if !serialCT.Equal(parCT, 0) {
			return false
		}

		serialS, parS := mat.New(m, m), mat.New(m, m)
		h.MulDensePar(one, serialS, serialCT)
		h.MulDensePar(team, parS, parCT)
		return serialS.Equal(parS, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateColumnsAccumulateInDense(t *testing.T) {
	// Dense() accumulates duplicates; products treat them additively too.
	b := NewBuilder(2)
	b.AddRow([]int{0, 0}, []float64{1, 2})
	m := b.Build()
	if m.Dense().At(0, 0) != 3 {
		t.Fatal("duplicate columns not accumulated")
	}
	x := []float64{10, 0}
	y := make([]float64, 1)
	m.MulVec(y, x)
	if y[0] != 30 {
		t.Fatalf("MulVec with duplicates = %g", y[0])
	}
}

// BenchmarkDenseMulTSym times the first d-s product A = C·Hᵀ of a batch of
// 16 distance rows (two atoms, three coordinates each) at a helix node's
// size and at the ribo30S root's, on the team of two the bench ladder's
// sparse.dense_mult_sym rung uses.
func BenchmarkDenseMulTSym(b *testing.B) {
	const m = 16
	team := par.NewTeam(2)
	for _, n := range []int{258, 2598} {
		rng := rand.New(rand.NewSource(int64(n)))
		hb := NewBuilder(n)
		for r := 0; r < m; r++ {
			i := rng.Intn(n / 3)
			j := (i + 1 + rng.Intn(n/3-1)) % (n / 3)
			hb.AddRow([]int{3 * i, 3*i + 1, 3*i + 2, 3 * j, 3*j + 1, 3*j + 2},
				[]float64{0.5, -0.3, 0.8, -0.5, 0.3, -0.8})
		}
		h, c, dst := hb.Build(), randSym(rng, n), mat.New(n, m)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.DenseMulTSymPar(team, dst, c)
			}
		})
	}
}

// TestDenseMulTSymMatchesDense builds a symmetric C, poisons its strict
// upper triangle with NaN, and checks the symmetric product path never
// reads it and reproduces the dense product C·Hᵀ.
func TestDenseMulTSymMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		m := 1 + rng.Intn(24)
		h := randSparse(rng, m, n, 1+rng.Intn(6))
		c := randSym(rng, n)
		want := mat.New(n, m)
		mat.Mul(want, c, h.Dense().T())

		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c.Set(i, j, math.NaN())
			}
		}
		got := mat.New(n, m)
		h.DenseMulTSymPar(par.NewTeam(1+trial%4), got, c)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if math.IsNaN(got.At(i, j)) {
					t.Fatal("symmetric path read the poisoned upper triangle")
				}
			}
		}
		if !got.Equal(want, 1e-12) {
			t.Fatalf("n=%d m=%d: symmetric-read product differs from C·Hᵀ", n, m)
		}
	}
}
