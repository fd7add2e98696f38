package mat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"phmse/internal/par"
)

// mulNaive is the reference O(n³) triple loop the tiled kernels are checked
// against.
func mulNaive(a, b *Mat) *Mat {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := New(2, 2)
	Mul(dst, a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !dst.Equal(want, 1e-14) {
		t.Fatalf("got %v want %v", dst, want)
	}
}

func TestMulMatchesNaiveAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Cover sizes below, at, and above the tile boundary.
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {47, 48, 49}, {50, 120, 33}, {96, 96, 96}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		dst := New(dims[0], dims[2])
		Mul(dst, a, b)
		want := mulNaive(a, b)
		if !dst.Equal(want, 1e-10) {
			t.Fatalf("Mul mismatch for %v", dims)
		}
	}
}

func TestMulTN(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 21, 13)
	b := randMat(rng, 21, 17)
	dst := New(13, 17)
	MulTN(dst, a, b)
	want := mulNaive(a.T(), b)
	if !dst.Equal(want, 1e-10) {
		t.Fatal("MulTN mismatch")
	}
}

func TestMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	Mul(New(2, 2), New(2, 3), New(2, 2))
}

// Property: A·(B+C) == A·B + A·C within floating-point tolerance.
func TestMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		c := randMat(rng, k, n)
		bc := b.Clone()
		bc.Add(c)
		left := New(m, n)
		Mul(left, a, bc)
		right, ac := New(m, n), New(m, n)
		Mul(right, a, b)
		Mul(ac, a, c)
		right.Add(ac)
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: parallel multiplication agrees with the serial kernel for any
// team size.
func TestMulParMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		p := 1 + rng.Intn(8)
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		serial := New(m, n)
		Mul(serial, a, b)
		parallel := New(m, n)
		MulPar(par.NewTeam(p), parallel, a, b)
		return serial.Equal(parallel, 1e-11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestViewWritesThroughGemm(t *testing.T) {
	// Kernels must respect strides: multiply into a view of a larger
	// allocation and verify the frame is untouched.
	rng := rand.New(rand.NewSource(35))
	host := New(12, 12)
	for i := range host.Data {
		host.Data[i] = -7
	}
	dst := host.View(2, 3, 4, 5)
	a := randMat(rng, 4, 6)
	b := randMat(rng, 6, 5)
	Mul(dst, a, b)
	want := mulNaive(a, b)
	if !dst.Clone().Equal(want, 1e-12) {
		t.Fatal("view multiply wrong")
	}
	// Border stays -7.
	if host.At(0, 0) != -7 || host.At(11, 11) != -7 || host.At(2, 2) != -7 {
		t.Fatal("kernel wrote outside the view")
	}
}

func BenchmarkGemmSerial256(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	a := randMat(rng, 256, 256)
	c := randMat(rng, 256, 256)
	dst := New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(dst, a, c)
	}
}

func BenchmarkGemmPar256(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	a := randMat(rng, 256, 256)
	c := randMat(rng, 256, 256)
	dst := New(256, 256)
	team := par.NewTeam(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulPar(team, dst, a, c)
	}
}
