// Package molecule generates the structure-estimation problems used in the
// paper's evaluation: RNA double helices of configurable length (§3.1,
// Figure 2) and a synthetic stand-in for the prokaryotic 30S ribosomal
// subunit (§4.4, Figure 4). Each problem carries reference ("true") atom
// positions, a constraint set derived from the reference geometry, and the
// hierarchical grouping used for the hierarchical decomposition.
//
// The real 30S data set (neutron-diffraction protein positions plus NMR and
// biochemical constraints) is not publicly available; Ribo30S synthesizes a
// problem with the same structural statistics — component counts, pseudo-atom
// budget (~900), constraint budget (~6500), constraint locality, and the
// high branching factor of its decomposition — which are the properties the
// evaluation depends on.
package molecule

import (
	"fmt"
	"sort"

	"phmse/internal/constraint"
	"phmse/internal/geom"
)

// Atom is one (pseudo-)atom of a problem with its reference position.
type Atom struct {
	Name    string
	Residue int // residue / component identifier (generator-specific)
	Pos     geom.Vec3
}

// Group is a node of the hierarchical grouping of a molecule. Leaves own
// atom indices directly; the atom set of an interior node is the union over
// its subtree.
type Group struct {
	Name     string
	AtomIDs  []int // atoms owned directly (usually only at leaves)
	Children []*Group
}

// Atoms returns the sorted union of all atom indices in the subtree.
func (g *Group) Atoms() []int {
	var out []int
	g.walk(func(n *Group) { out = append(out, n.AtomIDs...) })
	sort.Ints(out)
	return out
}

// Leaves returns the leaf groups of the subtree in left-to-right order.
func (g *Group) Leaves() []*Group {
	var out []*Group
	g.walk(func(n *Group) {
		if len(n.Children) == 0 {
			out = append(out, n)
		}
	})
	return out
}

// Count returns the number of nodes in the subtree.
func (g *Group) Count() int {
	n := 0
	g.walk(func(*Group) { n++ })
	return n
}

// Depth returns the height of the subtree (a leaf has depth 1).
func (g *Group) Depth() int {
	d := 0
	for _, c := range g.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

func (g *Group) walk(f func(*Group)) {
	f(g)
	for _, c := range g.Children {
		c.walk(f)
	}
}

// Problem is a complete structure-estimation problem instance.
type Problem struct {
	Name        string
	Atoms       []Atom
	Constraints constraint.Set
	Tree        *Group
}

// TruePositions returns the reference coordinates of all atoms.
func (p *Problem) TruePositions() []geom.Vec3 {
	out := make([]geom.Vec3, len(p.Atoms))
	for i, a := range p.Atoms {
		out[i] = a.Pos
	}
	return out
}

// ScalarDim returns the total scalar dimension of the constraint set.
func (p *Problem) ScalarDim() int { return p.Constraints.ScalarDim() }

func (p *Problem) String() string {
	return fmt.Sprintf("%s: %d atoms, %d constraints (%d scalar)",
		p.Name, len(p.Atoms), p.Constraints.Len(), p.ScalarDim())
}

// WithAnchors returns a shallow copy of the problem with the first k atoms
// anchored at their reference positions. Distance-only problems are defined
// only up to a rigid motion; anchors remove that gauge freedom for accuracy
// experiments (the paper's ribosome problem plays the same trick with its
// neutron-diffraction protein reference points).
func WithAnchors(p *Problem, k int, sigma float64) *Problem {
	if k > len(p.Atoms) {
		k = len(p.Atoms)
	}
	var cons constraint.Set
	cons.Grow(k + p.Constraints.Len())
	for i := 0; i < k; i++ {
		cons.Add(constraint.Position{I: i, Target: p.Atoms[i].Pos, Sigma: sigma}.Row())
	}
	cons.Append(&p.Constraints)
	return &Problem{Name: p.Name + "+anchors", Atoms: p.Atoms, Constraints: cons, Tree: p.Tree}
}

// allPairsWithin appends a Distance constraint for every pair (i, j) from
// the two index slices whose reference distance is below cutoff. When the
// slices are identical, each unordered pair is visited once.
func allPairsWithin(atoms []Atom, a, b []int, cutoff, sigma float64, out *constraint.Set) {
	same := len(a) > 0 && len(b) == len(a) && &a[0] == &b[0]
	for ii, i := range a {
		jj0 := 0
		if same {
			jj0 = ii + 1
		}
		for _, j := range b[jj0:] {
			if i == j {
				continue
			}
			d := geom.Dist(atoms[i].Pos, atoms[j].Pos)
			if d < cutoff {
				out.Add(constraint.Distance{I: i, J: j, Target: d, Sigma: sigma}.Row())
			}
		}
	}
}
