package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
	c := mat.FromRows([][]float64{{10, 0}, {0, 1}})
	a := mat.New(2, 1)
	m.DenseMulTSymPar(par.NewTeam(1), a, c)
	if a.At(0, 0) != 30 || a.At(1, 0) != 0 {
		t.Fatalf("C·Hᵀ with duplicates = %v", a)
	}
}

// distanceRows builds a batch of m distance rows (two atoms, three
// coordinates each) over a state of n = 3·atoms. Scattered rows pair atoms
// drawn at random, so nearly every non-zero names a column of its own;
// chain rows join consecutive atoms from a random start, so consecutive
// rows share an atom and the batch names about half as many distinct
// columns as it has non-zeros — the shape of a helix node's batches.
func distanceRows(rng *rand.Rand, n, m int, chain bool) *Matrix {
	atoms := n / 3
	hb := NewBuilder(n)
	start := rng.Intn(atoms)
	for r := 0; r < m; r++ {
		i := rng.Intn(atoms)
		j := (i + 1 + rng.Intn(atoms-1)) % atoms
		if chain {
			i, j = (start+r)%atoms, (start+r+1)%atoms
		}
		hb.AddRow([]int{3 * i, 3*i + 1, 3*i + 2, 3 * j, 3*j + 1, 3*j + 2},
			[]float64{0.5, -0.3, 0.8, -0.5, 0.3, -0.8})
	}
	return hb.Build()
}

// BenchmarkDenseMulTSym times the first d-s product A = C·Hᵀ of a batch of
// 16 distance rows at node dimensions the cold helix solves run (129, 258)
// and at the ribo30S root's, on a team of one (what a `-max-procs 1` shard
// runs) and on the team of two the bench ladder's sparse.dense_mult_sym rung
// uses, for scattered rows (distinct columns = non-zeros) and chain rows
// (distinct columns ≈ half the non-zeros, as real batches are).
func BenchmarkDenseMulTSym(b *testing.B) {
	const m = 16
	for _, shape := range []string{"scattered", "chain"} {
		for _, n := range []int{129, 258, 2598} {
			rng := rand.New(rand.NewSource(int64(n)))
			h, c, dst := distanceRows(rng, n, m, shape == "chain"), randSym(rng, n), mat.New(n, m)
			for _, procs := range []int{1, 2} {
				team := par.NewTeam(procs)
				b.Run(fmt.Sprintf("%s/n=%d/procs=%d", shape, n, procs), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						h.DenseMulTSymPar(team, dst, c)
					}
				})
			}
		}
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

// denseMulTSymRef is the per-row form the gathered product replaced, kept
// as its reference: rows [r0, r1) of dst ← C·Hᵀ, each entry an ascending-k
// sum started from zero, C[i][c] with c > i read from C[c][i].
func denseMulTSymRef(h *Matrix, dst, c *mat.Mat, r0, r1 int) {
	for i := r0; i < r1; i++ {
		ci := c.Row(i)
		di := dst.Row(i)
		for j := 0; j < h.rows; j++ {
			cols, vals := h.Row(j)
			s := 0.0
			for k, cc := range cols {
				if cc <= i {
					s += vals[k] * ci[cc]
				} else {
					s += vals[k] * c.Data[cc*c.Stride+i]
				}
			}
			di[j] = s
		}
	}
}

// sameBits fails at the first entry of two equally shaped matrices that
// differs in any bit, except that a NaN matches any NaN.
func sameBits(t *testing.T, what string, got, want *mat.Mat) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s: (%d,%d) = %v (%#x), want %v (%#x)", what, i, j,
					g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// sprinkleSpecials replaces about a sixth of vs by special values: signed
// zeros and subnormals, and ±Inf and NaN too when withNonFinite is set.
func sprinkleSpecials(rng *rand.Rand, vs []float64, withNonFinite bool) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308}
	if withNonFinite {
		specials = append(specials, math.Inf(1), math.Inf(-1), math.NaN())
	}
	for i := range vs {
		if rng.Intn(6) == 0 {
			vs[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// dsForm is one form of the d-s kernels a host may run: the Go loops, or
// the vector kernels mat.VectorUnit selects.
type dsForm struct {
	name   string
	vector bool
}

// hostDSForms is every d-s form this host has, logged so that a host
// without the vector unit shows as such.
func hostDSForms(t *testing.T) []dsForm {
	forms := []dsForm{{"Go", false}}
	if mat.VectorUnit() {
		forms = append(forms, dsForm{"ymm", true})
	}
	names := make([]string, len(forms))
	for i, f := range forms {
		names[i] = f.name
	}
	t.Logf("d-s forms run on this host: %v", names)
	return forms
}

// pinned runs f with the kernels pinned to form.
func (form dsForm) pinned(f func()) {
	defer mat.PinKernels(form.vector, false)()
	f()
}

// TestGatheredDenseMulTSymMatchesPerRow pins the gathered d-s product, in
// every form the host has, to the per-row reference bit for bit: batches
// whose rows repeat atoms (the de-duplicated columns) or a column within a
// row, columns on, just above and just below the rows of a gather block and
// of a team chunk, every team size, row ranges starting mid-matrix, C's
// strict upper triangle poisoned with NaN (never read), and ±0, subnormals,
// ±Inf and NaN in C's lower triangle and in H.
func TestGatheredDenseMulTSymMatchesPerRow(t *testing.T) {
	forms := hostDSForms(t)
	rng := rand.New(rand.NewSource(29))
	teams := []*par.Team{par.NewTeam(1), par.NewTeam(2), par.NewTeam(3), par.NewTeam(7)}
	ns := []int{1, 2, 3, 5, 9, 24, 63, 64, 65, 128, 129, 130, 200, 258}
	for trial, n := range ns {
		for class := 0; class < 3; class++ {
			m := 1 + rng.Intn(18)
			hb := NewBuilder(n)
			for r := 0; r < m; r++ {
				var cols []int
				switch r % 4 {
				case 0: // a random atom pair
					i, j := rng.Intn((n+2)/3), rng.Intn((n+2)/3)
					for _, a := range []int{i, j} {
						for d := 0; d < 3 && 3*a+d < n; d++ {
							cols = append(cols, 3*a+d)
						}
					}
				case 1: // a column and its neighbour, often named by other rows too
					cols = append(cols, rng.Intn(n))
					cols = append(cols, min(cols[0]+1, n-1))
				case 2: // around a block or chunk boundary
					b := []int{gatherBlock, n / 2, n / 3, 2 * gatherBlock}[rng.Intn(4)]
					for _, c := range []int{b - 1, b, b + 1} {
						if c >= 0 && c < n {
							cols = append(cols, c)
						}
					}
				case 3: // a repeated column within the row, and an empty row
					if rng.Intn(3) > 0 {
						c := rng.Intn(n)
						cols = append(cols, c, rng.Intn(n), c)
					}
				}
				vals := make([]float64, len(cols))
				for k := range vals {
					vals[k] = rng.NormFloat64()
				}
				if class > 0 {
					sprinkleSpecials(rng, vals, class == 2)
				}
				hb.AddRow(cols, vals)
			}
			h := hb.Build()
			c := randSym(rng, n)
			for i := 0; i < n; i++ {
				row := c.Row(i)
				if class > 0 {
					sprinkleSpecials(rng, row[:i+1], class == 2)
				}
				for j := i + 1; j < n; j++ {
					row[j] = math.NaN()
				}
			}
			want := mat.New(n, m)
			denseMulTSymRef(h, want, c, 0, n)
			for _, form := range forms {
				for _, team := range teams {
					got := mat.New(n, m)
					form.pinned(func() { h.DenseMulTSymPar(team, got, c) })
					sameBits(t, fmt.Sprintf("n=%d m=%d class=%d team=%d, %s", n, m, class, team.Size(), form.name), got, want)
				}
			}
			// Chunks starting anywhere, as on a team of any size: rows
			// outside the chunk are not written.
			p := newGatherPlan(h, nil, c)
			for k := 0; k < 4; k++ {
				r0 := rng.Intn(n)
				r1 := r0 + 1 + rng.Intn(n-r0)
				ref := mat.New(n, m)
				denseMulTSymRef(h, ref, c, r0, r1)
				for _, form := range forms {
					got := mat.New(n, m)
					p.dst = got
					form.pinned(func() { p.rows(r0, r1) })
					sameBits(t, fmt.Sprintf("trial %d n=%d m=%d rows [%d,%d), %s", trial, n, m, r0, r1, form.name), got, ref)
				}
			}
			p.release()
		}
	}
}

// TestGatheredSlabEdges holds every form's chunks to the per-row reference
// where the sixteen-row slabs and the four-column transposes meet their
// edges: m = 1…17 (m mod 4 columns stored from the slab buffer), chunks of
// 1–40 rows starting on, just after and in the middle of a gather block (a
// slab shorter than sixteen rows at a chunk's end, reading lanes it never
// stores), and rows outside the chunk poisoned with a bit pattern no
// product yields, which must come back untouched.
func TestGatheredSlabEdges(t *testing.T) {
	forms := hostDSForms(t)
	const poison = 0x7ff4_dead_beef_0bad // a signalling NaN with a payload
	rng := rand.New(rand.NewSource(34))
	n := 3*gatherBlock + 21
	for m := 1; m <= 17; m++ {
		h := distanceRows(rng, n, m, m%2 == 0)
		c := randSym(rng, n)
		p := newGatherPlan(h, nil, c)
		for _, r0 := range []int{0, 1, 5, gatherBlock - 3, gatherBlock, gatherBlock + 17, 2*gatherBlock + 40, n - 16, n - 3} {
			for _, w := range []int{1, 3, 15, 16, 17, 31, 40} {
				r1 := min(r0+w, n)
				ref := mat.New(n, m)
				denseMulTSymRef(h, ref, c, r0, r1)
				for _, form := range forms {
					got := mat.New(n, m)
					for i := range got.Data {
						got.Data[i] = math.Float64frombits(poison)
					}
					p.dst = got
					form.pinned(func() { p.rows(r0, r1) })
					what := fmt.Sprintf("m=%d rows [%d,%d), %s", m, r0, r1, form.name)
					for i := 0; i < n; i++ {
						for j := 0; j < m; j++ {
							g := math.Float64bits(got.At(i, j))
							switch {
							case i >= r0 && i < r1 && g != math.Float64bits(ref.At(i, j)):
								t.Fatalf("%s: (%d,%d) = %#x, want %#x", what, i, j, g, math.Float64bits(ref.At(i, j)))
							case (i < r0 || i >= r1) && g != poison:
								t.Fatalf("%s: row %d outside the chunk written: (%d,%d) = %#x", what, i, i, j, g)
							}
						}
					}
				}
			}
		}
		p.release()
	}
}

// mulDenseRef is the row-by-Axpy loop MulDensePar's vector form
// reproduces, kept as its reference: each row of dst cleared, then
// Axpy(v_k, A[c_k], row) over the row's non-zeros in order.
func mulDenseRef(h *Matrix, dst, a *mat.Mat) {
	for i := 0; i < h.rows; i++ {
		di := dst.Row(i)
		clear(di)
		cols, vals := h.Row(i)
		for k, c := range cols {
			mat.Axpy(vals[k], a.Row(c), di)
		}
	}
}

// TestMulDenseMatchesAxpyLoop holds H·A, in every form the host has, to the
// row-by-Axpy loop bit for bit: widths p = 1…17 and 31…33 (sixteen-lane and
// four-lane groups and a Go tail), A and dst views inside larger matrices,
// empty rows and repeated columns, ±0, subnormals, ±Inf and NaN in A and H,
// on teams of one to seven.
func TestMulDenseMatchesAxpyLoop(t *testing.T) {
	forms := hostDSForms(t)
	rng := rand.New(rand.NewSource(35))
	var ps []int
	for p := 1; p <= 17; p++ {
		ps = append(ps, p)
	}
	ps = append(ps, 31, 32, 33)
	for trial, p := range ps {
		m, n := 1+rng.Intn(20), 1+rng.Intn(60)
		hb := NewBuilder(n)
		for r := 0; r < m; r++ {
			var cols []int
			switch r % 3 {
			case 0:
				cols = rng.Perm(n)[:min(n, 1+rng.Intn(9))]
			case 1:
				if c := rng.Intn(n); rng.Intn(2) == 0 {
					cols = []int{c, rng.Intn(n), c}
				}
			}
			vals := make([]float64, len(cols))
			for k := range vals {
				vals[k] = rng.NormFloat64()
			}
			sprinkleSpecials(rng, vals, trial%2 == 1)
			hb.AddRow(cols, vals)
		}
		h := hb.Build()
		a := mat.New(n+3, p+5).View(2, 3, n, p)
		for i := 0; i < n; i++ {
			row := a.Row(i)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			sprinkleSpecials(rng, row, trial%2 == 1)
		}
		want := mat.New(m, p)
		mulDenseRef(h, want, a)
		for _, form := range forms {
			got := mat.New(m+2, p+7).View(1, 4, m, p)
			team := par.NewTeam(1 + trial%7)
			form.pinned(func() { h.MulDensePar(team, got, a) })
			sameBits(t, fmt.Sprintf("m=%d n=%d p=%d team=%d, %s", m, n, p, team.Size(), form.name), got, want)
		}
	}
}

// TestGatherPlanAllocatesNothing: at steady state the product's call, its
// bound body and the chunks' gather buffers all come from their pools, so a
// product allocates nothing; and a matrix rebuilt with the same pattern —
// the batch's Jacobian at the next cycle — gets its builder's plan back, so
// the cycle's only allocation is Build's Matrix header. Under the race
// detector sync.Pool drops some of what is put back — probed here rather
// than assumed — and a dropped call (two allocations) or buffer (two) is
// made again.
func TestGatherPlanAllocatesNothing(t *testing.T) {
	var probe sync.Pool
	probe.Put(new(int))
	poolKeeps := true
	for i := 0; i < 100; i++ {
		x := probe.Get()
		if x == nil {
			poolKeeps, x = false, new(int)
		}
		probe.Put(x)
	}

	rng := rand.New(rand.NewSource(30))
	const n, m = 258, 16
	h, c, dst := distanceRows(rng, n, m, true), randSym(rng, n), mat.New(n, m)
	one := par.NewTeam(1)
	allocs := testing.AllocsPerRun(200, func() { h.DenseMulTSymPar(one, dst, c) })
	if (poolKeeps && allocs != 0) || allocs > 6 {
		t.Errorf("%v allocations per product at steady state (pools keep what is put back: %v)", allocs, poolKeeps)
	}

	// The same rows through one builder, cycle after cycle.
	hb := NewBuilder(n)
	cycle := func() {
		hb.Reset()
		for j := 0; j < m; j++ {
			hb.AddRow(h.Row(j))
		}
		hb.Build().DenseMulTSymPar(one, dst, c)
	}
	cycle()
	allocs = testing.AllocsPerRun(200, cycle)
	if (poolKeeps && allocs != 1) || allocs > 7 {
		t.Errorf("%v allocations per rebuilt product with a kept plan, want the Matrix header alone (pools keep what is put back: %v)", allocs, poolKeeps)
	}
}

// TestBuilderKeepsPlanWhilePatternHolds: through one builder, patterns that
// repeat, lose an entry or a row, name the same columns in another order or
// swap a column, each product equals a fresh builder's bit for bit, and
// the plan it ran is the builder's, of its own column indices.
func TestBuilderKeepsPlanWhilePatternHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 40
	c := randSym(rng, n)
	patterns := [][][]int{
		{{0, 1, 2, 9, 10, 11}, {9, 10, 11, 30, 31, 32}},
		{{0, 1, 2, 9, 10, 11}, {9, 10, 11, 30, 31, 32}}, // the same: kept
		{{0, 1, 2, 9, 10, 11}, {9, 11, 10, 30, 31, 32}}, // the same columns, reordered
		{{0, 1, 2, 9, 10, 11}, {3, 4, 5, 30, 31, 32}},   // columns swapped, as many entries
		{{0, 1, 2, 9, 10, 11}, {3, 4, 30, 31, 32}},      // an entry gone
		{{0, 1, 2, 9, 10, 11}},                          // a row gone
		{{0, 1, 2, 9, 10, 11}},                          // kept
		{{0, 1, 2, 9, 10, 11}, {9, 10, 11, 30, 31, 32}},
	}
	hb := NewBuilder(n)
	for i, rows := range patterns {
		hb.Reset()
		fresh := NewBuilder(n)
		for _, cols := range rows {
			vals := make([]float64, len(cols))
			for k := range vals {
				vals[k] = rng.NormFloat64()
			}
			hb.AddRow(cols, vals)
			fresh.AddRow(cols, vals)
		}
		h := hb.Build()
		if h.plan != &hb.plan || !h.plan.of(h.colIdx) {
			t.Fatalf("pattern %d: the plan is not the builder's, of these columns", i)
		}
		want, got := mat.New(n, len(rows)), mat.New(n, len(rows))
		fresh.Build().DenseMulTSymPar(par.NewTeam(1), want, c)
		h.DenseMulTSymPar(par.NewTeam(2), got, c)
		sameBits(t, fmt.Sprintf("pattern %d", i), got, want)
	}
}
