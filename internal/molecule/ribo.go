package molecule

import (
	"fmt"
	"math"
	"math/rand"

	"phmse/internal/constraint"
	"phmse/internal/geom"
)

// Synthetic 30S ribosomal subunit generator (§4.4 of the paper). The real
// problem models the 16S rRNA — about 65 double helices plus roughly as many
// interconnecting coils — together with 21 proteins whose positions are
// known from neutron diffraction and serve as reference points. The modeled
// problem has about 900 pseudo-atoms and 6500 constraints. This generator
// synthesizes a problem with those statistics; see DESIGN.md for the
// substitution rationale.

// Ribo30SConfig parametrizes the synthetic ribosome generator; the zero
// value is replaced by the paper-scale defaults.
type Ribo30SConfig struct {
	Helices  int // number of double-helix segments (default 65)
	Coils    int // number of coil segments (default 65)
	Proteins int // number of protein reference points (default 21)
	Seed     int64
}

func (c Ribo30SConfig) withDefaults() Ribo30SConfig {
	if c.Helices == 0 {
		c.Helices = 65
	}
	if c.Coils == 0 {
		c.Coils = 65
	}
	if c.Proteins == 0 {
		c.Proteins = 21
	}
	return c
}

const (
	riboHelixAtoms = 8   // pseudo-atoms per helix segment (two strands of 4)
	riboCoilAtoms  = 5   // pseudo-atoms per coil segment
	riboStep       = 5.9 // Å between consecutive pseudo-atoms along a segment
	riboRadius     = 46  // Å bounding sphere of the assembly
	riboCutCross   = 9.6 // Å cutoff for inter-segment contact constraints
	riboCutProt    = 13  // Å cutoff for helix-protein distances
	sigmaRiboGeom  = 0.3 // within-segment geometric constraints
	sigmaRiboCross = 1.0 // segment-to-segment distances
	sigmaRiboProt  = 1.2 // helix-to-protein distances
	sigmaProtein   = 1.5 // protein reference-point anchors
)

// segment records the atoms of one generated rRNA segment.
type segment struct {
	name  string
	helix bool
	atoms []int
}

// Ribo30S generates the synthetic 30S ribosomal subunit problem with the
// default paper-scale configuration.
func Ribo30S(seed int64) *Problem {
	return Ribo30SWith(Ribo30SConfig{Seed: seed})
}

// Ribo30SWith generates a synthetic ribosome problem with explicit sizing,
// which the tests use to exercise scaled-down instances.
func Ribo30SWith(cfg Ribo30SConfig) *Problem {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Problem{Name: "ribo30S"}

	// Proteins: single pseudo-atoms on a golden-angle spiral over the
	// bounding sphere; they get absolute position observations, standing in
	// for the neutron-diffraction map.
	var protAtoms []int
	protRadius := riboRadius * math.Cbrt(float64(cfg.Helices+cfg.Coils)/130)
	golden := math.Pi * (3 - math.Sqrt(5))
	for i := 0; i < cfg.Proteins; i++ {
		y := 1 - 2*float64(i)/float64(cfg.Proteins-1)
		if cfg.Proteins == 1 {
			y = 0
		}
		r := math.Sqrt(math.Max(0, 1-y*y))
		a := golden * float64(i)
		pos := geom.Vec3{protRadius * r * math.Cos(a), protRadius * y, protRadius * r * math.Sin(a)}
		p.Atoms = append(p.Atoms, Atom{Name: fmt.Sprintf("S%d", i+2), Residue: -1 - i, Pos: pos})
		protAtoms = append(protAtoms, len(p.Atoms)-1)
	}

	// rRNA segments: alternate helices and coils along a bounded random
	// walk so that consecutive segments connect and non-consecutive ones
	// come near each other, producing localized plus long-range contacts.
	// The bounding radius scales with the cube root of the segment count so
	// scaled-down instances keep the full problem's contact density.
	nSeg := cfg.Helices + cfg.Coils
	radius := riboRadius * math.Cbrt(float64(nSeg)/130)
	segs := make([]segment, 0, nSeg)
	cursor := geom.Vec3{radius * 0.4, 0, 0}
	dir := geom.Vec3{1, 0, 0}
	hLeft, cLeft := cfg.Helices, cfg.Coils
	for s := 0; s < nSeg; s++ {
		isHelix := (s%2 == 0 && hLeft > 0) || cLeft == 0
		if isHelix {
			hLeft--
		} else {
			cLeft--
		}
		// Random bounded-walk direction change.
		dir = perturbDir(rng, dir, 0.9)
		if cursor.Norm() > radius*0.9 {
			dir = cursor.Scale(-1 / cursor.Norm()) // steer back inside
			dir = perturbDir(rng, dir, 0.4)
		}
		var seg segment
		if isHelix {
			seg = growRiboHelix(p, s, cursor, dir, rng)
		} else {
			seg = growRiboCoil(p, s, cursor, dir, rng)
		}
		segs = append(segs, seg)
		cursor = p.Atoms[seg.atoms[len(seg.atoms)-1]].Pos
	}

	// Constraints.
	var cons constraint.Set
	// Protein reference points.
	for _, a := range protAtoms {
		cons.Add(constraint.Position{I: a, Target: p.Atoms[a].Pos, Sigma: sigmaProtein}.Row())
	}
	// Within-segment geometry: all pairs inside a segment.
	for _, seg := range segs {
		allPairsWithin(p.Atoms, seg.atoms, seg.atoms, 1e9, sigmaRiboGeom, &cons)
	}
	// Chain continuity between consecutive segments.
	for s := 0; s+1 < len(segs); s++ {
		i := segs[s].atoms[len(segs[s].atoms)-1]
		j := segs[s+1].atoms[0]
		d := geom.Dist(p.Atoms[i].Pos, p.Atoms[j].Pos)
		cons.Add(constraint.Distance{I: i, J: j, Target: d, Sigma: sigmaRiboGeom}.Row())
	}
	// Inter-segment contacts: experimental distances between helices (and
	// coils) that happen to lie near each other in the folded structure.
	for s := 0; s < len(segs); s++ {
		for q := s + 1; q < len(segs); q++ {
			allPairsWithin(p.Atoms, segs[s].atoms, segs[q].atoms, riboCutCross, sigmaRiboCross, &cons)
		}
	}
	// Helix-to-protein distances.
	for _, seg := range segs {
		if !seg.helix {
			continue
		}
		allPairsWithin(p.Atoms, seg.atoms, protAtoms, riboCutProt, sigmaRiboProt, &cons)
	}
	p.Constraints = cons

	// Figure 4 decomposition: the root fans out into domains of roughly ten
	// consecutive segments plus a protein group; each segment is a further
	// node. The high branching factor at the top is what lets the static
	// scheduler divide processors evenly (no power-of-two speedup dips).
	p.Tree = riboTree(p, segs, protAtoms)
	return p
}

func perturbDir(rng *rand.Rand, dir geom.Vec3, amount float64) geom.Vec3 {
	d := dir.Add(geom.Vec3{
		amount * rng.NormFloat64(),
		amount * rng.NormFloat64(),
		amount * rng.NormFloat64(),
	})
	if d.Norm() < 1e-9 {
		d = geom.Vec3{1, 0, 0}
	}
	return d.Unit()
}

// growRiboHelix lays down a short double helix: two antiparallel strands of
// four pseudo-atoms each, straddling the segment axis.
func growRiboHelix(p *Problem, s int, start, dir geom.Vec3, rng *rand.Rand) segment {
	seg := segment{name: fmt.Sprintf("h%d", s), helix: true}
	// Perpendicular offset between the strands.
	perp := dir.Cross(geom.Vec3{0, 0, 1})
	if perp.Norm() < 0.1 {
		perp = dir.Cross(geom.Vec3{0, 1, 0})
	}
	perp = perp.Unit().Scale(2.0)
	half := riboHelixAtoms / 2
	for k := 0; k < half; k++ {
		pos := start.Add(dir.Scale(riboStep * float64(k+1))).Add(perp)
		pos = pos.Add(smallNoise(rng, 0.3))
		p.Atoms = append(p.Atoms, Atom{Name: fmt.Sprintf("%s.a%d", seg.name, k), Residue: s, Pos: pos})
		seg.atoms = append(seg.atoms, len(p.Atoms)-1)
	}
	for k := 0; k < half; k++ {
		pos := start.Add(dir.Scale(riboStep * float64(half-k))).Sub(perp)
		pos = pos.Add(smallNoise(rng, 0.3))
		p.Atoms = append(p.Atoms, Atom{Name: fmt.Sprintf("%s.b%d", seg.name, k), Residue: s, Pos: pos})
		seg.atoms = append(seg.atoms, len(p.Atoms)-1)
	}
	return seg
}

// growRiboCoil lays down a gently curving single strand of five
// pseudo-atoms.
func growRiboCoil(p *Problem, s int, start, dir geom.Vec3, rng *rand.Rand) segment {
	seg := segment{name: fmt.Sprintf("c%d", s)}
	cur := start
	d := dir
	for k := 0; k < riboCoilAtoms; k++ {
		d = perturbDir(rng, d, 0.25)
		cur = cur.Add(d.Scale(riboStep))
		p.Atoms = append(p.Atoms, Atom{Name: fmt.Sprintf("%s.%d", seg.name, k), Residue: s, Pos: cur})
		seg.atoms = append(seg.atoms, len(p.Atoms)-1)
	}
	return seg
}

func smallNoise(rng *rand.Rand, s float64) geom.Vec3 {
	return geom.Vec3{s * rng.NormFloat64(), s * rng.NormFloat64(), s * rng.NormFloat64()}
}

// riboTree builds the Figure 4 style decomposition: root → spatial domains
// (plus one protein group) → segments → strand leaves for helices. Domains
// group segments by spatial proximity (k-means over segment centroids), so
// most inter-segment contact constraints stay inside a domain — the
// locality property the hierarchical decomposition exploits.
func riboTree(p *Problem, segs []segment, protAtoms []int) *Group {
	root := &Group{Name: "ribo30S"}
	const domains = 13
	assign := clusterSegments(p, segs, domains)
	for d := 0; d < domains; d++ {
		dom := &Group{Name: fmt.Sprintf("domain%d", d)}
		for si, seg := range segs {
			if assign[si] != d {
				continue
			}
			node := &Group{Name: seg.name}
			if seg.helix {
				half := len(seg.atoms) / 2
				node.Children = []*Group{
					{Name: seg.name + ".s1", AtomIDs: append([]int(nil), seg.atoms[:half]...)},
					{Name: seg.name + ".s2", AtomIDs: append([]int(nil), seg.atoms[half:]...)},
				}
			} else {
				node.AtomIDs = append([]int(nil), seg.atoms...)
			}
			dom.Children = append(dom.Children, node)
		}
		if len(dom.Children) > 0 {
			root.Children = append(root.Children, dom)
		}
	}
	if len(protAtoms) > 0 {
		root.Children = append(root.Children, &Group{
			Name:    "proteins",
			AtomIDs: append([]int(nil), protAtoms...),
		})
	}
	return root
}

// clusterSegments assigns segments to k spatial clusters with a small
// deterministic k-means over segment centroids.
func clusterSegments(p *Problem, segs []segment, k int) []int {
	centroids := make([]geom.Vec3, len(segs))
	for i, seg := range segs {
		var c geom.Vec3
		for _, a := range seg.atoms {
			c = c.Add(p.Atoms[a].Pos)
		}
		centroids[i] = c.Scale(1 / float64(len(seg.atoms)))
	}
	// Seed cluster centers with evenly strided segment centroids.
	centers := make([]geom.Vec3, k)
	for j := 0; j < k; j++ {
		centers[j] = centroids[j*len(segs)/k]
	}
	assign := make([]int, len(segs))
	for iter := 0; iter < 25; iter++ {
		changed := false
		for i, c := range centroids {
			best, bestD := assign[i], math.Inf(1)
			for j, ctr := range centers {
				if d := c.Sub(ctr).Norm2(); d < bestD {
					best, bestD = j, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		counts := make([]int, k)
		sums := make([]geom.Vec3, k)
		for i, a := range assign {
			counts[a]++
			sums[a] = sums[a].Add(centroids[i])
		}
		for j := range centers {
			if counts[j] > 0 {
				centers[j] = sums[j].Scale(1 / float64(counts[j]))
			}
		}
	}
	return assign
}
