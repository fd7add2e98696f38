// Package analysis interprets the covariance half of a structure estimate.
// The paper's §2 motivates carrying the full covariance matrix because it
// tells "which parts of the molecule are better defined by the data"; this
// package turns that matrix into the quantities a structural biologist
// reads: per-atom uncertainty ellipsoids (principal axes of each 3×3
// diagonal block), inter-atom correlations (off-diagonal blocks), and a
// ranking of atoms by how well the data pins them down.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"phmse/internal/filter"
	"phmse/internal/geom"
	"phmse/internal/mat"
)

// Ellipsoid is one atom's positional uncertainty: principal axes (unit
// vectors) with their standard deviations, in descending order.
type Ellipsoid struct {
	Axes   [3]geom.Vec3
	Sigmas [3]float64
}

// volume returns the 1σ ellipsoid volume (4π/3 · σ₁σ₂σ₃).
func (e Ellipsoid) volume() float64 {
	return 4 * math.Pi / 3 * e.Sigmas[0] * e.Sigmas[1] * e.Sigmas[2]
}

// Anisotropy returns σ_max/σ_min (1 for an isotropic atom); an elongated
// ellipsoid means the data constrains some directions much better than
// others.
func (e Ellipsoid) Anisotropy() float64 {
	if e.Sigmas[2] <= 0 {
		return math.Inf(1)
	}
	return e.Sigmas[0] / e.Sigmas[2]
}

func (e Ellipsoid) String() string {
	return fmt.Sprintf("σ=(%.3f, %.3f, %.3f) Å", e.Sigmas[0], e.Sigmas[1], e.Sigmas[2])
}

// AtomEllipsoid extracts atom i's 3×3 covariance block and returns its
// principal-axis decomposition. Tiny negative eigenvalues from round-off
// clamp to zero. The block is a diagonal view of C, which is kept in its
// lower triangle only; SymEigen reads nothing else, and works on a copy.
func AtomEllipsoid(s *filter.State, atom int) (Ellipsoid, error) {
	if atom < 0 || atom >= s.Atoms() {
		return Ellipsoid{}, fmt.Errorf("analysis: atom %d out of %d", atom, s.Atoms())
	}
	w, v, err := mat.SymEigen(s.C.View(3*atom, 3*atom, 3, 3))
	if err != nil {
		return Ellipsoid{}, fmt.Errorf("analysis: atom %d: %w", atom, err)
	}
	var e Ellipsoid
	for k := 0; k < 3; k++ {
		if w[k] < 0 {
			w[k] = 0
		}
		e.Sigmas[k] = math.Sqrt(w[k])
		e.Axes[k] = geom.Vec3{v.At(0, k), v.At(1, k), v.At(2, k)}
	}
	return e, nil
}

// Correlation returns a scalar coupling measure between two atoms: the
// Frobenius norm of the cross-covariance block normalized by the geometric
// mean of the atoms' own covariance norms. Zero means the estimates are
// uncorrelated (updates to one leave the other untouched — the locality
// property hierarchical decomposition exploits); values near one mean the
// data rigidly ties them together.
func Correlation(s *filter.State, a, b int) float64 {
	if a < 0 || b < 0 || a >= s.Atoms() || b >= s.Atoms() {
		panic("analysis: atom index out of range")
	}
	cross := frob(s, a, b)
	na := frob(s, a, a)
	nb := frob(s, b, b)
	if na == 0 || nb == 0 {
		return 0
	}
	return cross / math.Sqrt(na*nb)
}

// frob is the Frobenius norm of the 3×3 covariance block of atoms a
// (rows) and b (columns), summed row by row.
func frob(s *filter.State, a, b int) float64 {
	sum := 0.0
	for i := 3 * a; i < 3*a+3; i++ {
		for j := 3 * b; j < 3*b+3; j++ {
			v := s.Cov(i, j)
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// RankAtoms returns atom indices ordered from best determined (smallest
// total variance) to worst.
func RankAtoms(s *filter.State) []int {
	idx := make([]int, s.Atoms())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return s.Variance(idx[a]) < s.Variance(idx[b])
	})
	return idx
}

// Report renders a short human-readable uncertainty summary: overall
// statistics plus the k best- and worst-determined atoms with their
// ellipsoids. names may be nil.
func Report(s *filter.State, names []string, k int) string {
	n := s.Atoms()
	if n == 0 {
		return "empty estimate\n"
	}
	if k < 1 {
		k = 3
	}
	if k > n {
		k = n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "uncertainty over %d atoms: mean positional σ %.3f Å\n",
		n, math.Sqrt(s.MeanVariance()/3))
	ranked := RankAtoms(s)
	section := func(title string, atoms []int) {
		fmt.Fprintf(&b, "%s:\n", title)
		for _, a := range atoms {
			e, err := AtomEllipsoid(s, a)
			label := fmt.Sprintf("atom %d", a)
			if names != nil && a < len(names) && names[a] != "" {
				label = fmt.Sprintf("atom %d (%s)", a, names[a])
			}
			if err != nil {
				fmt.Fprintf(&b, "  %-18s <degenerate covariance: %v>\n", label, err)
				continue
			}
			fmt.Fprintf(&b, "  %-18s %s  anisotropy %.1f\n", label, e, e.Anisotropy())
		}
	}
	section("best determined", ranked[:k])
	section("worst determined", ranked[n-k:])
	return b.String()
}
