package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD returns a random symmetric positive definite n×n matrix.
func randSPD(rng *rand.Rand, n int) *Mat {
	a := randMat(rng, n, n)
	spd := refMulNT(a, a)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n)) // boost diagonal for conditioning
	}
	return spd
}

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %+v", m)
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %g, want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row(1)[2] = %g, want 7.5", got)
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("shape %d×%d", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %g", m.At(2, 1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1}, {2, 3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %g", i, j, id.At(i, j))
			}
		}
	}
}

func TestViewAliasing(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("view does not alias parent storage")
	}
	if v.Rows != 2 || v.Cols != 2 || v.Stride != 4 {
		t.Fatalf("view shape: %+v", v)
	}
}

func TestViewBounds(t *testing.T) {
	m := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range view did not panic")
		}
	}()
	m.View(2, 2, 2, 2)
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 3, 5)
	c := m.Clone()
	c.Set(0, 0, 123)
	if m.At(0, 0) == 123 {
		t.Fatal("clone shares storage")
	}
	c.Set(0, 0, m.At(0, 0))
	if !m.Equal(c, 0) {
		t.Fatal("clone differs from original")
	}
}

func TestCloneOfView(t *testing.T) {
	m := New(4, 4)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	v := m.View(1, 1, 2, 3)
	c := v.Clone()
	if c.Stride != 3 {
		t.Fatalf("clone stride %d, want compact 3", c.Stride)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != v.At(i, j) {
				t.Fatalf("clone(%d,%d) = %g, want %g", i, j, c.At(i, j), v.At(i, j))
			}
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	b.Add(a)
	if b.At(1, 1) != 44 {
		t.Fatalf("Add: %g", b.At(1, 1))
	}
	b.Sub(a)
	if b.At(1, 1) != 40 {
		t.Fatalf("Sub: %g", b.At(1, 1))
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMat(rng, 3, 5)
	tt := m.T()
	if tt.Rows != 5 || tt.Cols != 3 {
		t.Fatalf("T shape %d×%d", tt.Rows, tt.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != tt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSymmetrize(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {4, 3}})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize: %v", m)
	}
}

func TestMaxAbs(t *testing.T) {
	m := FromRows([][]float64{{1, -7}, {3, 4}})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %g", m.MaxAbs())
	}
	if New(0, 0).MaxAbs() != 0 {
		t.Fatal("MaxAbs of empty != 0")
	}
}

func TestSetIdentityAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 4, 4)
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero left non-zero entries")
	}
}

// Property: (A + B) − B == A for the element-wise operations.
func TestAddSubRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randMat(rng, r, c)
		b := randMat(rng, r, c)
		sum := a.Clone()
		sum.Add(b)
		sum.Sub(b)
		return sum.Equal(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transposition is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMat(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2), 1) {
		t.Fatal("matrices of different shapes reported equal")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Fatal("empty String for small matrix")
	}
	big := New(20, 20).String()
	if big == "" {
		t.Fatal("empty String for large matrix")
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func BenchmarkMatClone(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := randMat(rng, 200, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Clone()
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
