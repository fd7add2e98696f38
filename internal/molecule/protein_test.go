package molecule

import (
	"math"
	"strings"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
)

func TestProteinShape(t *testing.T) {
	p := Protein(48, 1)
	// 4 backbone atoms per residue plus cycling sidechains.
	if len(p.Atoms) < 48*4 || len(p.Atoms) > 48*9 {
		t.Fatalf("atoms = %d", len(p.Atoms))
	}
	// Hierarchy: bundle → segment pairs → segments → residues → leaves.
	if p.Tree.Depth() != 5 {
		t.Fatalf("depth = %d", p.Tree.Depth())
	}
	if len(p.Tree.Children) != 2 { // 4 segments grouped into 2 pairs
		t.Fatalf("pairs = %d", len(p.Tree.Children))
	}
	if len(segmentNodes(p.Tree)) != 4 { // 48 residues / 12 per segment
		t.Fatalf("segments = %d", len(segmentNodes(p.Tree)))
	}
	// Leaves partition the atoms.
	seen := map[int]bool{}
	for _, l := range p.Tree.Leaves() {
		for _, a := range l.AtomIDs {
			if seen[a] {
				t.Fatalf("atom %d in two leaves", a)
			}
			seen[a] = true
		}
	}
	if len(seen) != len(p.Atoms) {
		t.Fatalf("leaves cover %d of %d atoms", len(seen), len(p.Atoms))
	}
}

func TestProteinUsesAllConstraintTypes(t *testing.T) {
	p := Protein(24, 2)
	counts := map[string]int{}
	for _, c := range p.Constraints.Rows() {
		switch c.Kind {
		case constraint.KindDistance, constraint.KindAngle, constraint.KindTorsion:
			counts[c.Kind.String()]++
		default:
			t.Fatalf("unexpected constraint type %v", c.Kind)
		}
	}
	for _, kind := range []string{"distance", "angle", "torsion"} {
		if counts[kind] == 0 {
			t.Fatalf("no %s constraints generated", kind)
		}
	}
	// φ/ψ per residue junction: torsions should be ~2×(residues − segments).
	if counts["torsion"] < 24 {
		t.Fatalf("torsions = %d", counts["torsion"])
	}
}

func TestProteinConstraintsConsistent(t *testing.T) {
	p := Protein(24, 3)
	pos := p.TruePositions()
	for _, c := range p.Constraints.Rows() {
		if v, ok := c.Distance(); ok {
			if math.Abs(geom.Dist(pos[v.I], pos[v.J])-v.Target) > 1e-9 {
				t.Fatalf("distance target inconsistent: %+v", v)
			}
		}
		if v, ok := c.Angle(); ok {
			if math.Abs(geom.Angle(pos[v.I], pos[v.J], pos[v.K])-v.Target) > 1e-9 {
				t.Fatalf("angle target inconsistent: %+v", v)
			}
		}
		if v, ok := c.Torsion(); ok {
			got := geom.Dihedral(pos[v.I], pos[v.J], pos[v.K], pos[v.L])
			diff := math.Abs(got - v.Target)
			if diff > math.Pi {
				diff = 2*math.Pi - diff
			}
			if diff > 1e-9 {
				t.Fatalf("torsion target inconsistent: %+v (geometry %g)", v, got)
			}
		}
	}
}

func TestProteinHydrogenBonds(t *testing.T) {
	// α-helical H-bonds O(i)…N(i+4) must exist and be short (< 6 Å in the
	// idealized geometry).
	p := Protein(12, 4)
	pos := p.TruePositions()
	hbonds := 0
	for _, c := range p.Constraints.Rows() {
		d, ok := c.Distance()
		if !ok || d.Sigma != sigmaHBond {
			continue
		}
		hbonds++
		if geom.Dist(pos[d.I], pos[d.J]) > 8 {
			t.Fatalf("H-bond distance %g too long", geom.Dist(pos[d.I], pos[d.J]))
		}
	}
	if hbonds != 12-4 {
		t.Fatalf("hbonds = %d, want %d", hbonds, 12-4)
	}
}

// segmentNodes returns the segment-level nodes of a protein tree
// (the children of the pair nodes, plus any unpaired leftover segment).
func segmentNodes(root *Group) []*Group {
	var out []*Group
	for _, c := range root.Children {
		if strings.HasPrefix(c.Name, "pair") {
			out = append(out, c.Children...)
		} else {
			out = append(out, c)
		}
	}
	return out
}

func TestProteinTertiaryContacts(t *testing.T) {
	// Segments of the bundle must be cross-linked by contact constraints.
	p := ProteinWith(ProteinConfig{Residues: 24, SegmentLen: 12, Seed: 5})
	segs := segmentNodes(p.Tree)
	segAtoms := make([]map[int]bool, len(segs))
	for si, seg := range segs {
		segAtoms[si] = map[int]bool{}
		for _, a := range seg.Atoms() {
			segAtoms[si][a] = true
		}
	}
	cross := 0
	for _, c := range p.Constraints.Rows() {
		d, ok := c.Distance()
		if !ok {
			continue
		}
		if segAtoms[0][d.I] != segAtoms[0][d.J] {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("no tertiary contacts between bundle segments")
	}
}

func TestProteinDeterministic(t *testing.T) {
	a := Protein(24, 9)
	b := Protein(24, 9)
	for i := range a.Atoms {
		if a.Atoms[i].Pos != b.Atoms[i].Pos {
			t.Fatal("non-deterministic")
		}
	}
}

func TestProteinMixedSheets(t *testing.T) {
	p := ProteinWith(ProteinConfig{Residues: 48, SegmentLen: 12, Mixed: true, Seed: 4})
	segs := segmentNodes(p.Tree)
	if len(segs) != 4 {
		t.Fatalf("segments = %d", len(segs))
	}
	// Same atom budget as the pure-helix variant.
	pure := ProteinWith(ProteinConfig{Residues: 48, SegmentLen: 12, Seed: 4})
	if len(p.Atoms) != len(pure.Atoms) {
		t.Fatalf("mixed atoms %d vs pure %d", len(p.Atoms), len(pure.Atoms))
	}
	// β-strands are extended: strand segment 1 spans more z than helix
	// segment 0.
	span := func(g *Group) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, a := range g.Atoms() {
			z := p.Atoms[a].Pos[2]
			if z < lo {
				lo = z
			}
			if z > hi {
				hi = z
			}
		}
		return hi - lo
	}
	helixSpan := span(segs[0])
	strandSpan := span(segs[1])
	if strandSpan < 1.5*helixSpan {
		t.Fatalf("strand span %g not extended vs helix %g", strandSpan, helixSpan)
	}
	// Constraint targets stay consistent with the geometry.
	pos := p.TruePositions()
	for _, c := range p.Constraints.Rows() {
		if d, ok := c.Distance(); ok {
			if math.Abs(geom.Dist(pos[d.I], pos[d.J])-d.Target) > 1e-9 {
				t.Fatalf("inconsistent mixed-protein distance %+v", d)
			}
		}
	}
}
