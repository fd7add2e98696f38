package encode

import (
	"slices"
	"strings"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/molecule"
)

// The topology hash must not depend on JSON field order: the same document
// with every object's fields permuted parses to the same topology.
func TestTopologyHashStableAcrossFieldOrder(t *testing.T) {
	doc1 := `{
	 "name": "perm",
	 "atoms": [{"name": "A", "pos": [0,0,0]}, {"pos": [1,0,0], "residue": 1}, {"pos": [0,1,0]}],
	 "constraints": [
	  {"type": "distance", "i": 0, "j": 1, "target": 1.0, "sigma": 0.1},
	  {"type": "angle", "i": 0, "j": 1, "k": 2, "target": 1.5, "sigma": 0.2}
	 ],
	 "tree": {"name": "root", "children": [{"atoms": [0, 1]}, {"atoms": [2]}]}
	}`
	doc2 := `{
	 "tree": {"children": [{"atoms": [0, 1]}, {"atoms": [2]}], "name": "root"},
	 "constraints": [
	  {"sigma": 0.1, "target": 1.0, "j": 1, "i": 0, "type": "distance"},
	  {"k": 2, "j": 1, "i": 0, "sigma": 0.2, "type": "angle", "target": 1.5}
	 ],
	 "atoms": [{"pos": [0,0,0], "name": "A"}, {"residue": 1, "pos": [1,0,0]}, {"pos": [0,1,0]}],
	 "name": "perm"
	}`
	p1, err := ReadProblem(strings.NewReader(doc1))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ReadProblem(strings.NewReader(doc2))
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := TopologyHash(p1), TopologyHash(p2)
	if h1 != h2 {
		t.Fatalf("field-order permutation changed the hash:\n%s\n%s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not a sha256 hex digest", h1)
	}
}

// setRow replaces row i of p's constraints.
func setRow(p *molecule.Problem, i int, r constraint.Row) {
	rows := p.Constraints.Rows()
	rows[i] = r
	p.Constraints = constraint.Of(rows...)
}

// Constraint order is not topology: a permuted constraint list hashes the
// same. Measurement values are not topology either.
func TestTopologyHashCanonical(t *testing.T) {
	p := sampleProblem()
	base := TopologyHash(p)

	perm := sampleProblem()
	rows := perm.Constraints.Rows()
	slices.Reverse(rows)
	perm.Constraints = constraint.Of(rows...)
	if got := TopologyHash(perm); got != base {
		t.Fatalf("constraint-order permutation changed the hash")
	}

	vals := sampleProblem()
	setRow(vals, 0, constraint.Distance{I: 0, J: 1, Target: 9.9, Sigma: 0.7}.Row())
	vals.Atoms[0].Pos = [3]float64{5, 5, 5}
	vals.Name = "other-name"
	if got := TopologyHash(vals); got != base {
		t.Fatalf("measurement values leaked into the topology hash")
	}
}

// Genuine topology changes must change the hash.
func TestTopologyHashDiscriminates(t *testing.T) {
	base := TopologyHash(sampleProblem())
	seen := map[string]string{"base": base}

	edge := sampleProblem()
	setRow(edge, 0, constraint.Distance{I: 0, J: 2, Target: 1.5, Sigma: 0.1}.Row())
	seen["different edge"] = TopologyHash(edge)

	kind := sampleProblem()
	setRow(kind, 0, constraint.DistanceBound{I: 0, J: 1, Lower: 1, Upper: 2, Sigma: 0.1}.Row())
	seen["different constraint type"] = TopologyHash(kind)

	atoms := sampleProblem()
	atoms.Atoms = append(atoms.Atoms, molecule.Atom{Pos: [3]float64{9, 9, 9}})
	seen["extra atom"] = TopologyHash(atoms)

	grouping := sampleProblem()
	grouping.Tree = &molecule.Group{Name: "root", Children: []*molecule.Group{
		{Name: "a", AtomIDs: []int{0, 1}},
		{Name: "b", AtomIDs: []int{2, 3, 4}},
	}}
	seen["different grouping"] = TopologyHash(grouping)

	flat := sampleProblem()
	flat.Tree = nil
	seen["no grouping"] = TopologyHash(flat)

	inverse := map[string]string{}
	for name, h := range seen {
		if prev, dup := inverse[h]; dup {
			t.Fatalf("%q and %q collide: %s", name, prev, h)
		}
		inverse[h] = name
	}
}

// Two helix generations of the same size share a topology; different sizes
// do not.
func TestTopologyHashGenerators(t *testing.T) {
	a := TopologyHash(molecule.Helix(2))
	b := TopologyHash(molecule.Helix(2))
	c := TopologyHash(molecule.Helix(3))
	if a != b {
		t.Fatal("identical generations hash differently")
	}
	if a == c {
		t.Fatal("different helix sizes collide")
	}
}

// The shard hashes every submission: rendering a topology costs a handful
// of buffers, not an allocation per constraint record or tree atom.
func TestTopologyHashAllocations(t *testing.T) {
	p := molecule.Helix(8)
	if allocs := testing.AllocsPerRun(10, func() { TopologyHash(p) }); allocs > 20 {
		t.Errorf("TopologyHash of %d constraints: %v allocations", p.Constraints.Len(), allocs)
	}
}
