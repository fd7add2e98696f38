package mat

import "sync"

// The vector form of the m-m microkernel: lowerNTPacked's rows taken
// tileRows at a time against a packed copy of B, every 4×8 tile computed by
// tiles4x8 (lower_amd64.s) or, two adjacent tiles at a time, by tiles4x16z.
// It is selected by packPanel returning a panel at all — which it does
// where the processor has AVX2 and nowhere else — and the zmm pairs by
// useAVX512; both are decided once at package init, and no flag,
// environment variable or build option reaches them.

const (
	tileRows = 4
	tileCols = 8
)

// panel is the first `rows` rows of a matrix B (n×m), transposed and packed
// for the kernel: column tile t holds rows 8t…8t+7 of B as m groups of
// eight, data[(t*m+k)*8+c] = B[8t+c][k], so the eight k-th entries one
// kernel step multiplies are one contiguous 64-byte load. The panel is
// padded with zero rows to a whole pair of tiles, so the zmm kernel's last
// pair never reads past it; the padding's lanes are computed and never
// stored.
type panel struct{ data []float64 }

// panelPool recycles panels. A batch update packs one — 333 KB at
// n = 2598, m = 16; allocated afresh they would be most of a solve's
// garbage. packPanel overwrites every word it hands the
// kernel, so a recycled panel carries nothing over.
var panelPool = sync.Pool{New: func() any { return new(panel) }}

// packPanel packs rows [0, rows) of b for lowerNTPacked, or returns nil
// where the Go tile is the kernel: no AVX2, nothing to multiply, or fewer
// rows than one tile.
func packPanel(b *Mat, rows int) *panel {
	m := b.Cols
	if !useAVX2 || m == 0 || rows < tileRows {
		return nil
	}
	p := panelPool.Get().(*panel)
	size := (rows + 2*tileCols - 1) / (2 * tileCols) * 2 * tileCols * m
	if cap(p.data) < size {
		p.data = make([]float64, size)
	}
	p.data = p.data[:size]
	j := 0
	for ; j+tileCols <= rows; j += tileCols {
		t := p.data[j*m : (j+tileCols)*m]
		b0, b1, b2, b3 := b.Row(j), b.Row(j + 1)[:m], b.Row(j + 2)[:m], b.Row(j + 3)[:m]
		b4, b5, b6, b7 := b.Row(j + 4)[:m], b.Row(j + 5)[:m], b.Row(j + 6)[:m], b.Row(j + 7)[:m]
		for k, v := range b0 {
			o := t[k*tileCols : k*tileCols+tileCols]
			o[0], o[1], o[2], o[3] = v, b1[k], b2[k], b3[k]
			o[4], o[5], o[6], o[7] = b4[k], b5[k], b6[k], b7[k]
		}
	}
	t := p.data[j*m:]
	clear(t)
	if j < rows {
		for c := 0; j+c < rows; c++ {
			for k, v := range b.Row(j + c) {
				t[k*tileCols+c] = v
			}
		}
	}
	return p
}

// release returns a panel to the pool; a nil panel (the Go-tile path) has
// nothing to return.
func (p *panel) release() {
	if p != nil {
		panelPool.Put(p)
	}
}

// lowerVec is lowerNTPacked's rows [r0, r1) through the vector kernel, pb
// holding at least rows [0, r1) of B; r1 ≥ tileRows (lowerNTPacked sees to
// it). The rows go four at a time, as row blocks (rowBlock). Rows left over
// at the end (fewer than four) are computed as the tail of the four rows
// ending at r1, of which only the leftover ones are stored — the rows above
// may be another chunk's.
func lowerVec(dst, a *Mat, pb *panel, r0, r1 int, sign float64) {
	i := r0
	for ; i+tileRows <= r1; i += tileRows {
		rowBlock(dst, a, pb, i, i, sign)
	}
	if i < r1 {
		rowBlock(dst, a, pb, r1-tileRows, i, sign)
	}
}

// allLanes is the kernels' store mask that stores every lane.
const allLanes = ^uint64(0)

// rowBlock computes rows [first, ib+4) of the row block [ib, ib+4), first
// ≥ ib, in tiles w = 8 (tiles4x8) or 16 (tiles4x16z) columns wide. The
// tiles whose every column is at or left of the diagonal in every row go in
// one call, storing whole rows from first on — with allLanes, plain loads
// and stores, when first = ib. The one or two tiles that straddle the
// diagonal follow one call each, every row storing only its columns at or
// left of the diagonal (rowMasks). A masked lane of out is neither read
// into a sum nor written, so the strict upper triangle, rows before first
// and everything right of dst's view stay as they were, and a stored lane
// performs the same operations whichever tile it falls in.
func rowBlock(dst, a *Mat, pb *panel, ib, first int, sign float64) {
	w := tileCols
	if useAVX512 {
		w = 2 * tileCols
	}
	full := (ib + 1) / w * w
	if full > 0 {
		tiles(dst, a, pb, ib, 0, full/w, sign, allLanes<<(16*(first-ib)))
	}
	for j := full; j < ib+tileRows; j += w {
		tiles(dst, a, pb, ib, j, 1, sign, rowMasks(ib, first, j, w))
	}
}

// rowMasks is the store mask of the w-column tile at column j of the row
// block [ib, ib+4): in row ib+r (bits 16r…16r+15), from first on, the
// lanes of columns j…ib+r.
func rowMasks(ib, first, j, w int) uint64 {
	var masks uint64
	for r := first - ib; r < tileRows; r++ {
		c := min(max(ib+r+1-j, 0), w)
		masks |= (1<<c - 1) << (16 * r)
	}
	return masks
}

// tiles runs nt tiles (pairs, on the 512-bit unit) of the row block
// [ib, ib+4) from column j under the store mask masks.
func tiles(dst, a *Mat, pb *panel, ib, j, nt int, sign float64, masks uint64) {
	m := a.Cols
	out, ai, p := &dst.Data[ib*dst.Stride+j], &a.Data[ib*a.Stride], &pb.data[j*m]
	if useAVX512 {
		tiles4x16z(out, dst.Stride, ai, a.Stride, p, m, nt, sign, masks)
	} else {
		tiles4x8(out, dst.Stride, ai, a.Stride, p, m, nt, sign, masks)
	}
}
