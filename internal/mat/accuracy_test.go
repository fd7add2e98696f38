package mat

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"phmse/internal/par"
)

// The m-m kernels against exact arithmetic. Each entry of the lower triangle
// of dst + sign·A·Bᵀ is r = c + sign·Σₖ xₖyₖ; math/big computes it exactly.
// A dot product of m terms rounded as the kernels round it — from +0, k
// ascending, one rounding per fused term — errs by at most
//
//	Σₖ γ(nₖ)·|xₖyₖ|, γ(n) = n·u / (1 − n·u), u = 2⁻⁵³,
//
// where nₖ counts the roundings term k goes through: m for the first, then
// m − k + 1 (Higham, Accuracy and Stability of Numerical Algorithms, §3.1).
// Unfused, a term's product is rounded too, so nₖ = m − k + 2 after the
// first; both bounds are at most γ(m)·Σₖ|xₖyₖ|, and the fused one never
// exceeds the unfused one. Adding the sum to c rounds once more, so the
// entry errs by at most u·|r| + (1 + u)·bound.

// exactPrec holds every sum here exactly: the terms' exponents span less
// than 300 binary places.
const exactPrec = 1024

func bigOf(v float64) *big.Float { return new(big.Float).SetPrec(exactPrec).SetFloat64(v) }

// gammas returns γ(1), …, γ(n) at index 1…n.
func gammas(n int) []*big.Float {
	u := new(big.Float).SetPrec(exactPrec).SetMantExp(big.NewFloat(1), -53)
	g := make([]*big.Float, n+1)
	for i := 1; i <= n; i++ {
		nu := new(big.Float).SetPrec(exactPrec).Mul(big.NewFloat(float64(i)), u)
		den := new(big.Float).SetPrec(exactPrec).Sub(big.NewFloat(1), nu)
		g[i] = new(big.Float).SetPrec(exactPrec).Quo(nu, den)
	}
	return g
}

// wideMat is an r×c matrix of entries of both signs whose magnitudes span
// 2⁻²⁰…2²⁰, so the sums cancel and their terms differ in scale.
func wideMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(41)-20)
	}
	return m
}

// unfusedDot is the inner product with every product rounded on its own:
// the explicit conversion keeps the compiler from fusing it.
func unfusedDot(x, y []float64) float64 {
	s := 0.0
	for k, v := range x {
		s += float64(v * y[k])
	}
	return s
}

// entryError is |got − want| in exact arithmetic.
func entryError(got float64, want *big.Float) *big.Float {
	d := new(big.Float).SetPrec(exactPrec).Sub(bigOf(got), want)
	return d.Abs(d)
}

// TestMMKernelsWithinRoundingBound runs every m-m form the host has on
// operands with cancellation and spread magnitudes and holds every entry to
// the exact result: within the fused bound above, which is never beyond the
// unfused one. The unfused loop, held to its own bound, checks the oracle.
// It logs the largest and the mean error of each, as a share of its bound.
func TestMMKernelsWithinRoundingBound(t *testing.T) {
	kernels := hostMMKernels()
	logKernels(t, kernels)
	rng := rand.New(rand.NewSource(52))
	u := new(big.Float).SetPrec(exactPrec).SetMantExp(big.NewFloat(1), -53)
	onePlusU := new(big.Float).SetPrec(exactPrec).Add(big.NewFloat(1), u)
	ratio := func(err, bound *big.Float) float64 {
		r, _ := new(big.Float).Quo(err, bound).Float64()
		return r
	}
	type share struct{ worst, sum, n float64 }
	shares := map[string]*share{"unfused loop": {}}
	for _, k := range kernels {
		shares[k.name] = &share{}
	}
	for _, m := range []int{1, 2, 3, 8, 16, 17, 64} {
		g := gammas(m)
		for _, n := range []int{1, 4, 7, 13, 34, 67} {
			a, b, c0 := wideMat(rng, n, m), wideMat(rng, n, m), wideMat(rng, n, n)
			sign := float64(1 - 2*(n%2))
			// The exact entries and both bounds, lower triangle row-major.
			var exact, fusedBound, unfusedBound []*big.Float
			unfused := c0.Clone()
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					sum := new(big.Float).SetPrec(exactPrec)
					bf := new(big.Float).SetPrec(exactPrec)
					bu := new(big.Float).SetPrec(exactPrec)
					for k := 0; k < m; k++ {
						p := new(big.Float).SetPrec(exactPrec).Mul(bigOf(a.At(i, k)), bigOf(b.At(j, k)))
						sum.Add(sum, p)
						p.Abs(p)
						nf, nu := m-k, m-k+1
						if k == 0 {
							nf, nu = m, m
						}
						bf.Add(bf, new(big.Float).SetPrec(exactPrec).Mul(g[nf], p))
						bu.Add(bu, new(big.Float).SetPrec(exactPrec).Mul(g[nu], p))
					}
					r := new(big.Float).SetPrec(exactPrec).Mul(sum, bigOf(sign))
					r.Add(r, bigOf(c0.At(i, j)))
					if sum.Acc() != big.Exact || r.Acc() != big.Exact {
						t.Fatalf("m=%d n=%d (%d,%d): the exact sum was rounded", m, n, i, j)
					}
					ur := new(big.Float).SetPrec(exactPrec).Abs(r)
					ur.Mul(ur, u)
					for _, bd := range []*big.Float{bf, bu} {
						bd.Mul(bd, onePlusU)
						bd.Add(bd, ur)
					}
					if bf.Cmp(bu) > 0 {
						t.Fatalf("m=%d n=%d (%d,%d): fused bound %v beyond the unfused %v", m, n, i, j, bf, bu)
					}
					exact, fusedBound, unfusedBound = append(exact, r), append(fusedBound, bf), append(unfusedBound, bu)
					unfused.Set(i, j, c0.At(i, j)+sign*unfusedDot(a.Row(i), b.Row(j)))
				}
			}
			check := func(name string, got *Mat, bounds []*big.Float) {
				t.Helper()
				e := 0
				for i := 0; i < n; i++ {
					for j := 0; j <= i; j++ {
						err := entryError(got.At(i, j), exact[e])
						if err.Cmp(bounds[e]) > 0 {
							t.Fatalf("m=%d n=%d sign=%+g %s: (%d,%d) = %v errs by %v, bound %v",
								m, n, sign, name, i, j, got.At(i, j), err, bounds[e])
						}
						if bounds[e].Sign() > 0 {
							sh, r := shares[name], ratio(err, bounds[e])
							sh.worst, sh.sum, sh.n = max(sh.worst, r), sh.sum+r, sh.n+1
						}
						e++
					}
				}
			}
			check("unfused loop", unfused, unfusedBound)
			for ki, k := range kernels {
				got := c0.Clone()
				team := par.NewTeam(1 + (n+ki)%2)
				func() {
					defer PinKernels(k.avx2, k.avx512)()
					lowerNTPar(team, got, a, b, sign)
				}()
				check(k.name, got, fusedBound)
			}
		}
	}
	for _, name := range append([]string{"unfused loop"}, kernelNames(kernels)...) {
		sh := shares[name]
		t.Logf("%s: error at most %.3g, on average %.3g of its bound", name, sh.worst, sh.sum/sh.n)
	}
}
