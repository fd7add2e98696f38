package encode

import (
	"bytes"
	"math"
	"strconv"
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
	p.Constraints = constraint.Of(
		constraint.Distance{I: 0, J: 1, Target: 1.5, Sigma: 0.1}.Row(),
		constraint.Angle{I: 0, J: 1, K: 2, Target: 1.9, Sigma: 0.05}.Row(),
		constraint.Torsion{I: 0, J: 1, K: 2, L: 3, Target: -0.5, Sigma: 0.2}.Row(),
		constraint.Position{I: 4, Target: geom.Vec3{4, 1, 2}, Sigma: 0.3}.Row(),
		constraint.DistanceBound{I: 1, J: 4, Lower: 2, Upper: 9, Sigma: 0.5}.Row())
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
	if q.Name != p.Name || len(q.Atoms) != len(p.Atoms) || q.Constraints.Len() != p.Constraints.Len() {
		t.Fatalf("round trip lost data: %v", q)
	}
	for i := range p.Atoms {
		if q.Atoms[i].Pos != p.Atoms[i].Pos || q.Atoms[i].Residue != p.Atoms[i].Residue {
			t.Fatalf("atom %d differs", i)
		}
	}
	for i := range p.Constraints.Rows() {
		if q.Constraints.Row(i) != p.Constraints.Row(i) {
			t.Fatalf("constraint %d: %#v vs %#v", i, q.Constraints.Row(i), p.Constraints.Row(i))
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
		if len(q.Atoms) != len(p.Atoms) || q.Constraints.Len() != p.Constraints.Len() {
			t.Fatalf("%s: sizes differ", p.Name)
		}
		if q.Tree.Count() != p.Tree.Count() {
			t.Fatalf("%s: tree count differs", p.Name)
		}
	}
}

// The reader refuses a bound whose limits the solver would read otherwise
// than written — a negative limit, or an upper limit below the lower —
// naming the constraint, and keeps a valid bound's limits bit for bit.
func TestReadBoundLimits(t *testing.T) {
	doc := func(lower, upper string) string {
		return `{"atoms":[{"pos":[0,0,0]},{"pos":[1,0,0]}],"constraints":[` +
			`{"type":"distance","i":0,"j":1,"target":1,"sigma":0.1},` +
			`{"type":"bound","i":0,"j":1,"lower":` + lower + `,"upper":` + upper + `,"sigma":0.5}]}`
	}
	for _, bad := range [][2]string{{"-1", "0"}, {"0", "-2"}, {"3", "-1"}, {"3", "2"}, {"-0.5", "4"}} {
		_, err := ReadProblemBytes([]byte(doc(bad[0], bad[1])))
		if err == nil || !strings.Contains(err.Error(), "constraint 1:") {
			t.Errorf("lower %s, upper %s: err %v, want constraint 1 refused", bad[0], bad[1], err)
		}
	}
	for _, ok := range [][2]float64{{3, 0}, {0, 5}, {2, 5}, {2.5, 2.5}, {0, 0}, {1e-300, 1e300}} {
		p, err := ReadProblemBytes([]byte(doc(strconv.FormatFloat(ok[0], 'g', -1, 64), strconv.FormatFloat(ok[1], 'g', -1, 64))))
		if err != nil {
			t.Fatalf("lower %g, upper %g: %v", ok[0], ok[1], err)
		}
		b, isBound := p.Constraints.Row(1).Bound()
		if !isBound || math.Float64bits(b.Lower) != math.Float64bits(ok[0]) || math.Float64bits(b.Upper) != math.Float64bits(ok[1]) {
			t.Errorf("lower %g, upper %g read as %+v", ok[0], ok[1], b)
		}
	}
}
