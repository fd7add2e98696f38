package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"phmse/internal/constraint"
	"phmse/internal/geom"
)

// TypeResidual summarizes how well one class of observations is satisfied.
type TypeResidual struct {
	Scalars int     // scalar observations of this type (active ones only)
	RMS     float64 // RMS of (z − h)/σ
	Worst   float64 // largest |z − h|/σ
}

// ResidualByType evaluates every constraint at the given conformation and
// groups the weighted residuals by constraint type — the first place to
// look when a solve stalls (e.g. distances satisfied but torsions fighting
// them). Inactive gated constraints are skipped.
func ResidualByType(pos []geom.Vec3, cons *constraint.Set) map[string]TypeResidual {
	byKind := make([][]int32, constraint.NumKinds)
	for r := range cons.Len() {
		k := cons.Kind(r)
		byKind[k] = append(byKind[k], int32(r))
	}
	x := geom.Flat(pos)
	out := make(map[string]TypeResidual)
	var lin constraint.Lin
	for k, rows := range byKind {
		lin.Reset()
		cons.Eval(rows, nil, x, &lin)
		if len(lin.Z) == 0 {
			continue // no row of the kind, or none active
		}
		var tr TypeResidual
		sumSq := 0.0
		for d, s2 := range lin.R {
			if s2 <= 0 {
				continue
			}
			diff := lin.Z[d] - lin.H[d]
			if lin.Wrap[d] {
				diff = math.Mod(diff+3*math.Pi, 2*math.Pi) - math.Pi
			}
			w := math.Abs(diff) / math.Sqrt(s2)
			tr.Scalars++
			sumSq += w * w
			if w > tr.Worst {
				tr.Worst = w
			}
		}
		if tr.Scalars > 0 {
			tr.RMS = math.Sqrt(sumSq / float64(tr.Scalars))
		}
		out[constraint.Kind(k).String()] = tr
	}
	return out
}

// FormatResiduals renders the per-type residual table, largest RMS first.
func FormatResiduals(byType map[string]TypeResidual) string {
	keys := make([]string, 0, len(byType))
	for k := range byType {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return byType[keys[i]].RMS > byType[keys[j]].RMS })
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %10s %10s\n", "type", "scalars", "rms(σ)", "worst(σ)")
	for _, k := range keys {
		tr := byType[k]
		fmt.Fprintf(&b, "%-10s %8d %10.3f %10.3f\n", k, tr.Scalars, tr.RMS, tr.Worst)
	}
	return b.String()
}
