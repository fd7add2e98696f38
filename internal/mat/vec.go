package mat

import "math"

// Vector operations ("vec" class in the paper's time distribution).
// All functions operate on plain []float64 slices.

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y ← y + a·x.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// AddVec computes dst ← x + y.
func AddVec(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("mat: AddVec length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] + y[i]
	}
}

// SubVec computes dst ← x − y.
func SubVec(dst, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("mat: SubVec length mismatch")
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for large elements.
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute element of x.
func NormInf(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// RMS returns the root-mean-square of x, or 0 for an empty slice.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Norm2(x) / math.Sqrt(float64(len(x)))
}

// MulVec computes dst ← A·x (matrix-vector product, "m-v" class).
func MulVec(dst []float64, a *Mat, x []float64) {
	if len(dst) != a.Rows || len(x) != a.Cols {
		panic("mat: MulVec dimension mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		dst[i] = Dot(a.Row(i), x)
	}
}

// MulVecT computes dst ← Aᵀ·x without forming the transpose.
func MulVecT(dst []float64, a *Mat, x []float64) {
	if len(dst) != a.Cols || len(x) != a.Rows {
		panic("mat: MulVecT dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		Axpy(x[i], a.Row(i), dst)
	}
}
