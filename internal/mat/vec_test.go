package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"phmse/internal/par"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %g", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v", y)
		}
	}
}

func TestScaleAddSubVec(t *testing.T) {
	dst := make([]float64, 2)
	AddVec(dst, []float64{1, 2}, []float64{10, 20})
	if dst[0] != 11 || dst[1] != 22 {
		t.Fatalf("AddVec = %v", dst)
	}
	SubVec(dst, dst, []float64{1, 2})
	if dst[0] != 10 || dst[1] != 20 {
		t.Fatalf("SubVec = %v", dst)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, 4}
	if !almostEqual(Norm2(x), 5, 1e-14) {
		t.Fatalf("Norm2 = %g", Norm2(x))
	}
	if NormInf([]float64{1, -9, 2}) != 9 {
		t.Fatal("NormInf")
	}
	if RMS(nil) != 0 {
		t.Fatal("RMS(nil)")
	}
	if !almostEqual(RMS([]float64{3, 4}), 5/math.Sqrt2, 1e-14) {
		t.Fatalf("RMS = %g", RMS([]float64{3, 4}))
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Naive sum of squares would overflow here; scaled accumulation must not.
	x := []float64{1e200, 1e200}
	if math.IsInf(Norm2(x), 1) {
		t.Fatal("Norm2 overflowed")
	}
	if !almostEqual(Norm2(x)/1e200, math.Sqrt2, 1e-12) {
		t.Fatalf("Norm2 = %g", Norm2(x))
	}
}

func TestMulVecVariants(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 1, 1}
	dst := make([]float64, 2)
	MulVec(dst, a, x)
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec = %v", dst)
	}
	y := []float64{1, 2}
	dt := make([]float64, 3)
	MulVecT(dt, a, y)
	// Aᵀ·y = [1+8, 2+10, 3+12]
	if dt[0] != 9 || dt[1] != 12 || dt[2] != 15 {
		t.Fatalf("MulVecT = %v", dt)
	}
}

// Property: MulVecT agrees with forming the transpose explicitly.
func TestMulVecTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(15), 1+rng.Intn(15)
		a := randMat(rng, r, c)
		y := make([]float64, r)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		fast := make([]float64, c)
		MulVecT(fast, a, y)
		slow := make([]float64, c)
		MulVec(slow, a.T(), y)
		SubVec(slow, slow, fast)
		return Norm2(slow) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Cauchy–Schwarz inequality holds for Dot and Norm2.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		return math.Abs(Dot(x, y)) <= Norm2(x)*Norm2(y)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecParMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randMat(rng, 23, 9)
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	serial := make([]float64, 23)
	MulVec(serial, a, x)
	parallel := make([]float64, 23)
	MulVecPar(par.NewTeam(5), parallel, a, x)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatal("MulVecPar mismatch")
		}
	}
}
