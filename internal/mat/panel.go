package mat

import "sync"

// The vector form of the m-m microkernel: lowerNTPacked's rows taken
// tileRows at a time against a packed copy of B, tileCols columns per step,
// every 4×8 tile computed by tiles4x8 (lower_amd64.s). It is selected by
// packPanel returning a panel at all — which it does where the processor
// has AVX2 and nowhere else — so there is one decision, made once at package
// init, and no flag, environment variable or build option that reaches it.

const (
	tileRows = 4
	tileCols = 8
)

// panel is the first `rows` rows of a matrix B (n×m), transposed and packed
// for the kernel: column tile t holds rows 8t…8t+7 of B as m groups of
// eight, data[(t*m+k)*8+c] = B[8t+c][k], so the eight k-th entries one
// kernel step multiplies are one contiguous 64-byte load. Rows past `rows`
// in the last tile are zero: their lanes are computed and never stored.
type panel struct{ data []float64 }

// panelPool recycles panels. A batch update packs one (two for the pair
// form) — 333 KB at n = 2598, m = 16; allocated afresh they would be most
// of a solve's garbage. packPanel overwrites every word it hands the
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
	size := (rows + tileCols - 1) / tileCols * tileCols * m
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
	if j < rows {
		t := p.data[j*m:]
		clear(t)
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
// holding at least rows [0, r1) of B; r1 ≥ tileRows (lowerNTPacked sees to it). A
// block of four rows i…i+3 runs its full tiles — all eight columns at or
// left of the diagonal in every row, j+7 ≤ i — straight into dst, then the
// ragged strip beside the diagonal through edgeTiles. Rows left over at the
// end (fewer than four) are computed as the tail of the four rows ending at
// r1, of which only the leftover ones are stored — the rows above may be
// another chunk's.
func lowerVec(dst, a *Mat, pb *panel, r0, r1 int, sign float64) {
	m := a.Cols
	i := r0
	for ; i+tileRows <= r1; i += tileRows {
		nt := (i + 1) / tileCols
		if nt > 0 {
			tiles4x8(&dst.Data[i*dst.Stride], dst.Stride, &a.Data[i*a.Stride], a.Stride, &pb.data[0], m, nt, sign)
		}
		edgeTiles(dst, a, pb, i, i, nt*tileCols, sign)
	}
	if i < r1 {
		edgeTiles(dst, a, pb, r1-tileRows, i, 0, sign)
	}
}

// edgeTiles runs the tiles of the row block [ib, ib+4) from column j0 up to
// the diagonal where not every entry of a tile may be written: the tile is
// computed on a 4×8 copy of dst's entries and only those on or left of the
// diagonal, in rows from `first` on, are copied back. The copy goes through
// the same kernel, so an entry gets the same operations whichever side of
// the strip it falls; the strict upper triangle, rows before `first` and
// everything outside dst's view are neither read into the sum nor written.
func edgeTiles(dst, a *Mat, pb *panel, ib, first, j0 int, sign float64) {
	m := a.Cols
	var tile [tileRows * tileCols]float64
	for j := j0; j < ib+tileRows; j += tileCols {
		for i := first; i < ib+tileRows; i++ {
			if j <= i {
				copy(tile[(i-ib)*tileCols:(i-ib+1)*tileCols], dst.Data[i*dst.Stride+j:i*dst.Stride+i+1])
			}
		}
		tiles4x8(&tile[0], tileCols, &a.Data[ib*a.Stride], a.Stride, &pb.data[j*m], m, 1, sign)
		for i := first; i < ib+tileRows; i++ {
			if j <= i {
				w := min(tileCols, i+1-j)
				copy(dst.Data[i*dst.Stride+j:i*dst.Stride+j+w], tile[(i-ib)*tileCols:])
			}
		}
	}
}
