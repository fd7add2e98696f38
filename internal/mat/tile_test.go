package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phmse/internal/par"
)

// The loops the tiled microkernel and the four-row triangular solve
// replaced, kept as the references — the m-m one with its dot product
// fused, as the kernels fuse it: the kernels must reproduce them bit for
// bit, for every shape, stride and team size, because the solver's "same
// bits as before" guarantee rests on nothing else.

func naiveLowerSub(dst, a, b *Mat) {
	for i := 0; i < dst.Rows; i++ {
		ai, dr := a.Row(i), dst.Row(i)
		for j := 0; j <= i; j++ {
			dr[j] -= fmaDot(ai, b.Row(j))
		}
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
	{"Syr2kSubLowerPar", false, func(t *par.Team, d, a, b *Mat) { Syr2kSubLowerPar(t, d, a, b) }, naiveLowerSub},
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

// TestSolveCholRowsMatchesRowAtATime pins the gain solve — solveChol16's
// sixteen lanes where the processor has AVX2, solveChol4 and the single-row
// tail everywhere — to one ForwardSolve + BackwardSolveT per row, bit for
// bit: row counts on and off multiples of 16, batch dimensions on and off
// multiples of four (the masked column group) and above the panel width,
// right-hand sides strided inside poisoned memory, ranges starting off a
// 16-row boundary, special values in the right-hand sides and in L.
func TestSolveCholRowsMatchesRowAtATime(t *testing.T) {
	var ns, ms []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 129, 258)
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	ms = append(ms, 32, 48) // the Cholesky panel width, and above it
	teams := []*par.Team{par.NewTeam(1), par.NewTeam(2), par.NewTeam(3), par.NewTeam(7)}

	rng := rand.New(rand.NewSource(29))
	for _, m := range ms {
		l0 := randSPD(rng, m)
		if err := Cholesky(l0); err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			class := (n + m) % 4
			l := l0
			if class != 0 {
				// Signed zeros and subnormals in L's strict lower triangle.
				l = l0.Clone()
				for i := 0; i < m; i++ {
					for j := 0; j < i; j++ {
						switch rng.Intn(8) {
						case 0:
							l.Set(i, j, math.Copysign(0, float64(rng.Intn(2)*2-1)))
						case 1:
							l.Set(i, j, 5e-324*float64(rng.Intn(2)*2-1))
						}
					}
				}
			}
			b0 := randMat(rng, n, m)
			sprinkle(rng, b0, class)
			want := b0.Clone()
			for i := 0; i < n; i++ {
				ForwardSolve(l, want.Row(i))
				BackwardSolveT(l, want.Row(i))
			}
			what := fmt.Sprintf("n=%d m=%d class=%d", n, m, class)

			got := b0.Clone()
			SolveCholRows(l, got)
			sameBits(t, what, got, want)

			// From b0 into a view inside poisoned memory, on a team: nothing
			// beyond the view's columns is read into a sum or written.
			team := teams[(n+m)%len(teams)]
			back, view := poisoned(New(n, m))
			SolveCholRowsPar(team, l, view, b0)
			sameBits(t, fmt.Sprintf("%s strided team=%d", what, team.Size()), view, want)
			view.CopyFrom(New(n, m))
			for i, v := range back.Data {
				if v != 0 && math.Float64bits(v) != math.Float64bits(poison) {
					t.Fatalf("%s: word %d outside the view written", what, i)
				}
			}

			// Ranges no team chunking hands out, in place and from b0: rows
			// outside stay as they were.
			if n > 70 {
				continue
			}
			for _, r0 := range []int{1, 3, 15, 17} {
				for _, h := range []int{5, 16, 21, 35, n} {
					r1 := min(r0+h, n)
					if r0 >= r1 {
						continue
					}
					for _, start := range []*Mat{b0, New(n, m)} {
						got, src := start.Clone(), b0
						if start == b0 {
							src = got
						}
						SolveCholRowsRange(l, got, src, r0, r1)
						wantRange := start.Clone()
						wantRange.View(r0, 0, r1-r0, m).CopyFrom(want.View(r0, 0, r1-r0, m))
						sameBits(t, fmt.Sprintf("%s rows [%d,%d) in place=%v", what, r0, r1, start == b0), got, wantRange)
					}
				}
			}
		}
	}
}
