package molecule

import (
	"fmt"
	"math"
	"math/rand"

	"phmse/internal/constraint"
	"phmse/internal/geom"
)

// Synthetic protein generator. The paper's introduction motivates the
// hierarchy with proteins: residues share a common backbone and carry
// distinguishing sidechains; nearby residues form secondary structures
// (helices, sheets); and those subunits aggregate into tertiary features.
// Protein builds an antiparallel α-helix bundle with exactly that
// three-level organization and a mixed constraint set — distances, bond
// angles, backbone torsions (φ/ψ), hydrogen-bond distances, and
// inter-segment contacts — exercising every measurement type the library
// supports.

// α-helix backbone geometry (idealized).
const (
	caRise    = 1.5 // Å rise per residue along the helix axis
	caTwist   = 100 * math.Pi / 180
	caRadius  = 2.3  // Å Cα radius about the axis
	bundleGap = 10.0 // Å between segment axes in the bundle
)

// Measurement noise by constraint category (Å or radians).
const (
	sigmaBond    = 0.03
	sigmaAngle   = 0.05
	sigmaTorsion = 0.10
	sigmaHBond   = 0.25
	sigmaContact = 0.60
)

// proteinContactCutoff is the tertiary-contact distance cutoff (Å).
const proteinContactCutoff = 8.5

// residue records the atom layout of one generated amino-acid residue.
type residue struct {
	n, ca, c, o int   // backbone atom indices
	side        []int // sidechain pseudo-atom indices (may be empty: glycine)
}

func (r residue) backbone() []int { return []int{r.n, r.ca, r.c, r.o} }

func (r residue) all() []int { return append(r.backbone(), r.side...) }

// ProteinConfig sizes the generator; the zero value selects defaults.
type ProteinConfig struct {
	Residues   int // total residues (default 48)
	SegmentLen int // residues per segment (default 12)
	// Mixed alternates α-helical and extended β-strand segments; paired
	// antiparallel strands receive cross-strand hydrogen bonds, giving the
	// sheet secondary structure of the paper's introduction alongside the
	// helices.
	Mixed bool
	Seed  int64
}

func (c ProteinConfig) withDefaults() ProteinConfig {
	if c.Residues <= 0 {
		c.Residues = 48
	}
	if c.SegmentLen <= 0 {
		c.SegmentLen = 12
	}
	return c
}

// Protein generates a synthetic α-helix-bundle protein with the given
// number of residues.
func Protein(nResidues int, seed int64) *Problem {
	return ProteinWith(ProteinConfig{Residues: nResidues, Seed: seed})
}

// ProteinWith generates a synthetic protein with explicit sizing.
func ProteinWith(cfg ProteinConfig) *Problem {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Problem{Name: fmt.Sprintf("protein-%dres", cfg.Residues)}

	// Sidechain sizes cycle through small-to-large "residue types"
	// (glycine has none).
	scSizes := []int{0, 1, 2, 3, 4, 2, 3, 1, 5, 2}

	nSeg := (cfg.Residues + cfg.SegmentLen - 1) / cfg.SegmentLen
	var segments [][]residue
	strand := make([]bool, nSeg) // true: β-strand geometry
	res := 0
	for s := 0; s < nSeg; s++ {
		strand[s] = cfg.Mixed && s%2 == 1
		var seg []residue
		count := min(cfg.SegmentLen, cfg.Residues-res)
		for k := 0; k < count; k++ {
			if strand[s] {
				seg = append(seg, p.growStrandResidue(s, k, count, scSizes[res%len(scSizes)], rng))
			} else {
				seg = append(seg, p.growResidue(s, k, count, scSizes[res%len(scSizes)], rng))
			}
			res++
		}
		segments = append(segments, seg)
	}

	pos := p.TruePositions()
	var cons constraint.Set
	dist := func(i, j int, sigma float64) {
		cons.Add(constraint.Distance{
			I: i, J: j, Target: geom.Dist(pos[i], pos[j]), Sigma: sigma,
		}.Row())
	}
	angle := func(i, j, k int) {
		cons.Add(constraint.Angle{
			I: i, J: j, K: k, Target: geom.Angle(pos[i], pos[j], pos[k]), Sigma: sigmaAngle,
		}.Row())
	}
	torsion := func(i, j, k, l int) {
		cons.Add(constraint.Torsion{
			I: i, J: j, K: k, L: l,
			Target: geom.Dihedral(pos[i], pos[j], pos[k], pos[l]), Sigma: sigmaTorsion,
		}.Row())
	}

	for _, seg := range segments {
		for k, r := range seg {
			// Covalent backbone geometry within the residue.
			dist(r.n, r.ca, sigmaBond)
			dist(r.ca, r.c, sigmaBond)
			dist(r.c, r.o, sigmaBond)
			angle(r.n, r.ca, r.c)
			angle(r.ca, r.c, r.o)
			// Sidechain attachment and internal geometry.
			prev := r.ca
			for si, a := range r.side {
				dist(prev, a, sigmaBond)
				if si >= 1 {
					// Angle at the previous sidechain atom between its own
					// attachment point and the new atom.
					angle(prevOf(r, si), r.side[si-1], a)
				}
				prev = a
			}
			if k+1 < len(seg) {
				next := seg[k+1]
				// Peptide bond and the angles across it.
				dist(r.c, next.n, sigmaBond)
				angle(r.ca, r.c, next.n)
				angle(r.c, next.n, next.ca)
				// Backbone torsions: ψ(i) = N–CA–C–N′, φ(i+1) = C–N′–CA′–C′.
				torsion(r.n, r.ca, r.c, next.n)
				torsion(r.c, next.n, next.ca, next.c)
			}
			// Secondary structure: α-helical hydrogen bond O(i)…N(i+4).
			if k+4 < len(seg) {
				dist(r.o, seg[k+4].n, sigmaHBond)
			}
		}
	}
	// β-sheet hydrogen bonds between adjacent antiparallel strands: O(i) of
	// one strand to N of the facing residue on the next.
	for s := 0; s+1 < len(segments); s++ {
		if !strand[s] || !strand[s+1] {
			continue
		}
		a, b := segments[s], segments[s+1]
		for k := range a {
			facing := len(b) - 1 - k
			if facing < 0 || facing >= len(b) {
				continue
			}
			dist(a[k].o, b[facing].n, sigmaHBond)
		}
	}
	// Tertiary contacts between different segments.
	for si := 0; si < len(segments); si++ {
		for sj := si + 1; sj < len(segments); sj++ {
			var a, b []int
			for _, r := range segments[si] {
				a = append(a, r.all()...)
			}
			for _, r := range segments[sj] {
				b = append(b, r.all()...)
			}
			allPairsWithin(p.Atoms, a, b, proteinContactCutoff, sigmaContact, &cons)
		}
	}
	p.Constraints = cons

	// Hierarchy: bundle → segment pairs → segments → residues → leaves.
	// The intermediate pair nodes capture the tertiary contacts between
	// adjacent segments one level below the root, so only contacts that
	// cross a pair boundary rise to the top.
	var segNodes []*Group
	for si, seg := range segments {
		segNode := &Group{Name: fmt.Sprintf("seg%d", si)}
		for k, r := range seg {
			resNode := &Group{Name: fmt.Sprintf("seg%d.res%d", si, k)}
			resNode.Children = []*Group{{Name: resNode.Name + ".bb", AtomIDs: r.backbone()}}
			if len(r.side) > 0 {
				resNode.Children = append(resNode.Children,
					&Group{Name: resNode.Name + ".sc", AtomIDs: append([]int(nil), r.side...)})
			}
			segNode.Children = append(segNode.Children, resNode)
		}
		segNodes = append(segNodes, segNode)
	}
	root := &Group{Name: p.Name}
	for lo := 0; lo < len(segNodes); lo += 2 {
		if lo+1 < len(segNodes) {
			root.Children = append(root.Children, &Group{
				Name:     fmt.Sprintf("pair%d", lo/2),
				Children: []*Group{segNodes[lo], segNodes[lo+1]},
			})
		} else {
			root.Children = append(root.Children, segNodes[lo])
		}
	}
	p.Tree = root
	return p
}

// prevOf returns the attachment atom preceding sidechain atom si.
func prevOf(r residue, si int) int {
	if si == 1 {
		return r.ca
	}
	return r.side[si-2]
}

// growStrandResidue appends one residue in extended β-strand geometry:
// ~3.3 Å rise per residue along the segment axis with the alternating
// pleat of a β-strand, no helical twist.
func (p *Problem) growStrandResidue(s, k, count, scSize int, rng *rand.Rand) residue {
	up := s%2 == 0
	t := float64(k)
	if !up {
		t = float64(count - 1 - k)
	}
	z := t * 3.3
	axisX := float64(s) * bundleGap
	pleat := 0.6
	if k%2 == 1 {
		pleat = -pleat
	}
	place := func(dx, dy, dz float64, name string, resIdx int) int {
		pp := geom.Vec3{axisX + dx, pleat + dy, z + dz}
		pp = pp.Add(smallNoise(rng, 0.05))
		p.Atoms = append(p.Atoms, Atom{Name: name, Residue: resIdx, Pos: pp})
		return len(p.Atoms) - 1
	}
	resIdx := len(p.Atoms)
	var r residue
	r.n = place(-0.4, -0.3, -1.1, "N", resIdx)
	r.ca = place(0, 0, 0, "CA", resIdx)
	r.c = place(0.3, 0.3, 1.1, "C", resIdx)
	r.o = place(1.4, 0.5, 1.2, "O", resIdx)
	for si := 0; si < scSize; si++ {
		r.side = append(r.side, place(0.3*float64(si+1), 1.4+1.2*float64(si), 0.1, fmt.Sprintf("S%d", si), resIdx))
	}
	return r
}

// growResidue appends one residue's atoms for segment s at in-segment
// index k (of count residues); antiparallel neighbors run in −z.
func (p *Problem) growResidue(s, k, count, scSize int, rng *rand.Rand) residue {
	up := s%2 == 0
	t := float64(k)
	if !up {
		t = float64(count - 1 - k)
	}
	theta := t * caTwist
	z := t * caRise
	axisX := float64(s) * bundleGap

	place := func(dr, dth, dz float64, name string, resIdx int) int {
		r := caRadius + dr
		a := theta + dth
		pp := geom.Vec3{
			axisX + r*math.Cos(a),
			r * math.Sin(a),
			z + dz,
		}
		pp = pp.Add(smallNoise(rng, 0.05))
		p.Atoms = append(p.Atoms, Atom{Name: name, Residue: resIdx, Pos: pp})
		return len(p.Atoms) - 1
	}
	resIdx := len(p.Atoms) // unique-enough residue tag
	var r residue
	r.n = place(-0.6, -0.45, -0.55, "N", resIdx)
	r.ca = place(0, 0, 0, "CA", resIdx)
	r.c = place(-0.3, 0.40, 0.50, "C", resIdx)
	r.o = place(0.9, 0.55, 0.45, "O", resIdx)
	for si := 0; si < scSize; si++ {
		r.side = append(r.side, place(1.5+1.2*float64(si), 0.12*float64(si+1), 0.2, fmt.Sprintf("S%d", si), resIdx))
	}
	return r
}
