package mat

import (
	"fmt"
	"math/rand"
	"testing"

	"phmse/internal/par"
)

// The loops the tiled microkernel and the four-row triangular solve
// replaced, kept verbatim as the references: the kernels must reproduce
// them bit for bit, for every shape, stride and team size, because the
// solver's "same bits as before" guarantee rests on nothing else.

func naiveLowerSub(dst, a, b *Mat) {
	for i := 0; i < dst.Rows; i++ {
		ai, dr := a.Row(i), dst.Row(i)
		for j := 0; j <= i; j++ {
			dr[j] -= Dot(ai, b.Row(j))
		}
	}
}

func naiveLowerAdd(dst, a *Mat) {
	for i := 0; i < dst.Rows; i++ {
		ai, dr := a.Row(i), dst.Row(i)
		for j := 0; j <= i; j++ {
			dr[j] += Dot(ai, a.Row(j))
		}
	}
}

func naiveLowerPairSub(dst, a, b *Mat) {
	for i := 0; i < dst.Rows; i++ {
		ai, bi, dr := a.Row(i), b.Row(i), dst.Row(i)
		for j := 0; j < i; j++ {
			dr[j] = dr[j] - Dot(ai, b.Row(j)) - Dot(bi, a.Row(j))
		}
		d := Dot(ai, bi)
		dr[i] = dr[i] - d - d
	}
}

// mirrorNaive copies the strict lower triangle onto the strict upper, entry
// by entry.
func mirrorNaive(m *Mat) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < i; j++ {
			m.Set(j, i, m.At(i, j))
		}
	}
}

// mmEntryPoints is every m-m entry point there is — what the filter, the
// blocked factorization and the bench ladder call — each with the naive loop
// that defines its lower triangle. The bitwise suites here and in
// lower_test.go run all of them; mirrors marks the one form that also
// writes the strict upper triangle.
var mmEntryPoints = []struct {
	name    string
	mirrors bool
	run     func(t *par.Team, d, a, b *Mat)
	naive   func(d, a, b *Mat)
}{
	{"SyrkAddPar", false, func(t *par.Team, d, a, _ *Mat) { SyrkAddPar(t, d, a) }, func(d, a, _ *Mat) { naiveLowerAdd(d, a) }},
	{"Syr2kSubLowerPar", false, func(t *par.Team, d, a, b *Mat) { Syr2kSubLowerPar(t, d, a, b) }, naiveLowerSub},
	{"Syr2kPairSubLowerPar", false, func(t *par.Team, d, a, b *Mat) { Syr2kPairSubLowerPar(t, d, a, b) }, naiveLowerPairSub},
	{"Syr2kSubPar", true, func(t *par.Team, d, a, b *Mat) { Syr2kSubPar(t, d, a, b) }, naiveLowerSub},
	{"Cholesky trailing update", false, func(t *par.Team, d, a, _ *Mat) { lowerNTPar(t, d, a, a, -1) }, func(d, a, _ *Mat) { naiveLowerSub(d, a, a) }},
}

// sameView copies src into a fresh matrix with the same striding (compact,
// or a view into a larger allocation) so a kernel and its reference start
// from identical, identically laid out operands.
func sameView(src *Mat, strided bool) *Mat {
	if !strided {
		return src.Clone()
	}
	v := New(src.Rows+3, src.Cols+5).View(2, 3, src.Rows, src.Cols)
	v.CopyFrom(src)
	return v
}

func TestTiledKernelMatchesNaiveLoop(t *testing.T) {
	var ns, ms []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 129, 516)
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	ms = append(ms, 33)
	teams := []*par.Team{par.NewTeam(1), par.NewTeam(2), par.NewTeam(3), par.NewTeam(7)}

	rng := rand.New(rand.NewSource(14))
	for _, n := range ns {
		for _, m := range ms {
			a := randMatView(rng, n, m, (n+m)%2 == 0)
			b := randMatView(rng, n, m, m%3 == 0)
			c0 := randMatView(rng, n, n, false)
			for _, ep := range mmEntryPoints {
				// The strict upper triangle comes out as it went in, or,
				// from the mirroring form, as the mirror of the lower.
				want := c0.Clone()
				ep.naive(want, a, b)
				if ep.mirrors {
					mirrorNaive(want)
				}
				// The big shapes rotate through the variants instead of
				// running all of them.
				for ti, team := range teams {
					for _, strided := range []bool{false, true} {
						if n > 70 && (ti != m%len(teams) || strided != (m%2 == 0)) {
							continue
						}
						what := fmt.Sprintf("n=%d m=%d team=%d strided=%v %s", n, m, team.Size(), strided, ep.name)
						if !strided {
							got := c0.Clone()
							ep.run(team, got, a, b)
							sameBits(t, what, got, want)
							continue
						}
						// Nothing outside the view is written.
						back := New(n+3, n+5)
						view := back.View(2, 3, n, n)
						view.CopyFrom(c0)
						ep.run(team, view, a, b)
						sameBits(t, what, view, want)
						view.Zero()
						if back.MaxAbs() != 0 {
							t.Fatalf("%s: kernel wrote outside its view", what)
						}
					}
				}
			}
		}
	}
}

// TestSolveCholRowsMatchesRowAtATime pins the four-row interleaved solve to
// one ForwardSolve + BackwardSolveT per row, bit for bit, over row counts
// that exercise the blocks of four, the ragged tail and team chunking.
func TestSolveCholRowsMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 33} {
		l := randSPD(rng, m)
		if err := Cholesky(l); err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{0, 1, 3, 4, 5, 8, 11, 30, 129} {
			for _, strided := range []bool{false, true} {
				b0 := randMatView(rng, rows, m, strided)
				want := sameView(b0, strided)
				for i := 0; i < rows; i++ {
					ForwardSolve(l, want.Row(i))
					BackwardSolveT(l, want.Row(i))
				}
				for _, procs := range []int{1, 2, 3, 7} {
					got := sameView(b0, strided)
					SolveCholRowsPar(par.NewTeam(procs), l, got)
					sameBits(t, fmt.Sprintf("m=%d rows=%d procs=%d strided=%v", m, rows, procs, strided), got, want)
				}
			}
		}
	}
}
