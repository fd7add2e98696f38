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

// equalBits reports the first entry at which two equally shaped matrices
// differ in any bit, restricted to the lower triangle when lower is set.
func equalBits(t *testing.T, what string, got, want *Mat, lower bool) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		hi := want.Cols
		if lower {
			hi = i + 1
		}
		for j := 0; j < hi; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: (%d,%d) = %v, naive loop gives %v", what, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
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
			wantSub, wantAdd, wantSyr2k, wantPair := c0.Clone(), c0.Clone(), c0.Clone(), c0.Clone()
			naiveLowerSub(wantSub, a, a)
			naiveLowerAdd(wantAdd, a)
			naiveLowerSub(wantSyr2k, a, b)
			naiveLowerPairSub(wantPair, a, b)

			// The big shapes rotate through the variants instead of
			// running all of them.
			for ti, team := range teams {
				for _, strided := range []bool{false, true} {
					if n > 70 && (ti != m%len(teams) || strided != (m%2 == 0)) {
						continue
					}
					what := fmt.Sprintf("n=%d m=%d team=%d strided=%v", n, m, team.Size(), strided)
					lowerOnly := func(name string, want *Mat, run func(dst *Mat)) {
						got := sameView(c0, strided)
						run(got)
						equalBits(t, what+" "+name, got, want, true)
						for i := 0; i < n; i++ {
							for j := i + 1; j < n; j++ {
								if got.At(i, j) != c0.At(i, j) {
									t.Fatalf("%s %s: strict upper (%d,%d) written", what, name, i, j)
								}
							}
						}
					}
					mirrored := func(name string, want *Mat, run func(dst *Mat)) {
						got := sameView(c0, strided)
						run(got)
						full := want.Clone()
						MirrorLower(full)
						equalBits(t, what+" "+name, got, full, false)
					}
					lowerOnly("SyrkSubPar", wantSub, func(d *Mat) { SyrkSubPar(team, d, a) })
					lowerOnly("SyrkAddPar", wantAdd, func(d *Mat) { SyrkAddPar(team, d, a) })
					lowerOnly("Syr2kSubLowerPar", wantSyr2k, func(d *Mat) { Syr2kSubLowerPar(team, d, a, b) })
					lowerOnly("Syr2kPairSubLowerPar", wantPair, func(d *Mat) { Syr2kPairSubLowerPar(team, d, a, b) })
					mirrored("Syr2kSubPar", wantSyr2k, func(d *Mat) { Syr2kSubPar(team, d, a, b) })
					mirrored("Syr2kPairSubPar", wantPair, func(d *Mat) { Syr2kPairSubPar(team, d, a, b) })
					if strided {
						// Nothing outside the view is written.
						back := New(n+3, n+5)
						view := back.View(2, 3, n, n)
						view.CopyFrom(c0)
						Syr2kSubPar(team, view, a, b)
						view.Zero()
						if back.MaxAbs() != 0 {
							t.Fatalf("%s: kernel wrote outside its view", what)
						}
					}
				}
			}
			if n <= 70 {
				lowerSerial := func(name string, want *Mat, run func(dst *Mat)) {
					got := c0.Clone()
					run(got)
					equalBits(t, fmt.Sprintf("n=%d m=%d %s", n, m, name), got, want, true)
				}
				lowerSerial("SyrkSub", wantSub, func(d *Mat) { SyrkSub(d, a) })
				lowerSerial("SyrkAdd", wantAdd, func(d *Mat) { SyrkAdd(d, a) })
				lowerSerial("Syr2kSub", wantSyr2k, func(d *Mat) { Syr2kSub(d, a, b) })
				lowerSerial("Syr2kPairSub", wantPair, func(d *Mat) { Syr2kPairSub(d, a, b) })
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
					equalBits(t, fmt.Sprintf("m=%d rows=%d procs=%d strided=%v", m, rows, procs, strided), got, want, false)
				}
			}
		}
	}
}
