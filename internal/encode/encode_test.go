package encode

import (
	"bytes"
	"strings"
	"testing"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

func sampleProblem() *molecule.Problem {
	p := &molecule.Problem{Name: "sample"}
	for i := 0; i < 5; i++ {
		p.Atoms = append(p.Atoms, molecule.Atom{
			Name: "A", Residue: i, Pos: geom.Vec3{float64(i), 1, 2},
		})
	}
	p.Constraints = []constraint.Constraint{
		constraint.Distance{I: 0, J: 1, Target: 1.5, Sigma: 0.1},
		constraint.Angle{I: 0, J: 1, K: 2, Target: 1.9, Sigma: 0.05},
		constraint.Torsion{I: 0, J: 1, K: 2, L: 3, Target: -0.5, Sigma: 0.2},
		constraint.Position{I: 4, Target: geom.Vec3{4, 1, 2}, Sigma: 0.3},
		constraint.DistanceBound{I: 1, J: 4, Lower: 2, Upper: 9, Sigma: 0.5},
	}
	p.Tree = &molecule.Group{
		Name: "root",
		Children: []*molecule.Group{
			{Name: "a", AtomIDs: []int{0, 1, 2}},
			{Name: "b", AtomIDs: []int{3, 4}},
		},
	}
	return p
}

func TestRoundTrip(t *testing.T) {
	p := sampleProblem()
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || len(q.Atoms) != len(p.Atoms) || len(q.Constraints) != len(p.Constraints) {
		t.Fatalf("round trip lost data: %v", q)
	}
	for i := range p.Atoms {
		if q.Atoms[i].Pos != p.Atoms[i].Pos || q.Atoms[i].Residue != p.Atoms[i].Residue {
			t.Fatalf("atom %d differs", i)
		}
	}
	for i := range p.Constraints {
		if q.Constraints[i] != p.Constraints[i] {
			t.Fatalf("constraint %d: %#v vs %#v", i, q.Constraints[i], p.Constraints[i])
		}
	}
	if q.Tree == nil || len(q.Tree.Children) != 2 || q.Tree.Children[1].AtomIDs[1] != 4 {
		t.Fatal("tree lost")
	}
}

func TestRoundTripNoTree(t *testing.T) {
	p := sampleProblem()
	p.Tree = nil
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Tree != nil {
		t.Fatal("tree materialized from nothing")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"syntax":       `{`,
		"unknown type": `{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"warp","i":0,"sigma":1}]}`,
		"bad atom":     `{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"distance","i":0,"j":5,"sigma":1}]}`,
		"bad sigma":    `{"atoms":[{"pos":[0,0,0]},{"pos":[1,0,0]}],"constraints":[{"type":"distance","i":0,"j":1,"sigma":0}]}`,
		"no point":     `{"atoms":[{"pos":[0,0,0]}],"constraints":[{"type":"position","i":0,"sigma":1}]}`,
		// A truncated or concatenated file is not a problem file.
		"trailing garbage": `{"atoms":[{"pos":[0,0,0]}]} {"garbage"`,
		"two documents":    `{"atoms":[{"pos":[0,0,0]}]} {"atoms":[{"pos":[0,0,0]}]}`,
	}
	for name, in := range cases {
		if _, err := ReadProblem(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestGeneratedProblemsRoundTrip(t *testing.T) {
	for _, p := range []*molecule.Problem{
		molecule.Helix(2),
		molecule.Ribo30SWith(molecule.Ribo30SConfig{Helices: 3, Coils: 2, Proteins: 2, Seed: 1}),
	} {
		var buf bytes.Buffer
		if err := WriteProblem(&buf, p); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		q, err := ReadProblem(&buf)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(q.Atoms) != len(p.Atoms) || len(q.Constraints) != len(p.Constraints) {
			t.Fatalf("%s: sizes differ", p.Name)
		}
		if q.Tree.Count() != p.Tree.Count() {
			t.Fatalf("%s: tree count differs", p.Name)
		}
	}
}
