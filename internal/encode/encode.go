// Package encode defines the wire surface of phmse: the JSON problem
// interchange format, the solve request that carries it to POST /v1/solve,
// the job, posterior and admin documents, and the topology hashes that key
// plan caches, posterior compatibility and the router's ring. helixgen and
// msesolve exchange problem files in it; the client, router and daemon
// exchange requests. The problem document and the solve request are read
// by one hand-written scanner (scan.go) and written by one writer
// (write.go), both bound to encoding/json's rules for the tagged types
// below; the other documents go through encoding/json.
package encode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"phmse/internal/constraint"
	"phmse/internal/geom"
	"phmse/internal/molecule"
)

// fileProblem is the on-disk representation. The JSON tags on it and the
// types below document the format; the scanner and writer implement it,
// and their tests hold them to encoding/json's reading of these tags.
type fileProblem struct {
	Name        string           `json:"name"`
	Atoms       []fileAtom       `json:"atoms"`
	Constraints []fileConstraint `json:"constraints"`
	Tree        *fileGroup       `json:"tree,omitempty"`
}

type fileAtom struct {
	Name    string     `json:"name,omitempty"`
	Residue int        `json:"residue,omitempty"`
	Pos     [3]float64 `json:"pos"`
}

type fileGroup struct {
	Name     string       `json:"name,omitempty"`
	Atoms    []int        `json:"atoms,omitempty"`
	Children []*fileGroup `json:"children,omitempty"`
}

// fileTopo is the topology-relevant part of a constraint record: the type
// tag and the atom indices it couples. It is embedded in fileConstraint and
// is all of a constraint that routing decodes, so the topology hash reads
// the same fields of the same document whichever side computes it.
type fileTopo struct {
	Type string `json:"type"`
	I    int    `json:"i"`
	J    int    `json:"j,omitempty"`
	K    int    `json:"k,omitempty"`
	L    int    `json:"l,omitempty"`
}

// fileConstraint is the tagged union over constraint types.
type fileConstraint struct {
	fileTopo
	Target float64     `json:"target,omitempty"`
	Point  *[3]float64 `json:"point,omitempty"`
	Lower  float64     `json:"lower,omitempty"`
	Upper  float64     `json:"upper,omitempty"`
	Sigma  float64     `json:"sigma"`
}

// WriteProblem serializes the problem as indented JSON, the form
// json.Encoder with a one-space indent gives the tagged types.
func WriteProblem(w io.Writer, p *molecule.Problem) error {
	out := problemWriter(p)
	out.problem(p)
	if out.err != nil {
		return out.err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, out.b, "", " "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// ReadProblem parses a problem from JSON. The input must be exactly one
// JSON document.
func ReadProblem(r io.Reader) (*molecule.Problem, error) {
	var data bytes.Buffer
	if _, err := data.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return ReadProblemBytes(data.Bytes())
}

// problem validates the decoded document and converts it to solver form.
func (fp *fileProblem) problem() (*molecule.Problem, error) {
	p := &molecule.Problem{Name: fp.Name}
	if len(fp.Atoms) > 0 {
		p.Atoms = make([]molecule.Atom, len(fp.Atoms))
	}
	for i, a := range fp.Atoms {
		p.Atoms[i] = molecule.Atom{Name: a.Name, Residue: a.Residue, Pos: a.Pos}
	}
	if len(fp.Constraints) > 0 {
		p.Constraints = make([]constraint.Constraint, len(fp.Constraints))
	}
	for i, fc := range fp.Constraints {
		c, err := fromFile(fc, len(fp.Atoms))
		if err != nil {
			return nil, fmt.Errorf("encode: constraint %d: %w", i, err)
		}
		p.Constraints[i] = c
	}
	p.Tree = fromFileGroup(fp.Tree)
	return p, nil
}

// ReadProblemBytes parses a problem from a JSON document in memory.
func ReadProblemBytes(data []byte) (*molecule.Problem, error) {
	fp, err := decodeProblem(data)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return fp.problem()
}

func toFile(c constraint.Constraint) (fileConstraint, error) {
	switch v := c.(type) {
	case constraint.Distance:
		return fileConstraint{fileTopo: fileTopo{Type: "distance", I: v.I, J: v.J}, Target: v.Target, Sigma: v.Sigma}, nil
	case constraint.Angle:
		return fileConstraint{fileTopo: fileTopo{Type: "angle", I: v.I, J: v.J, K: v.K}, Target: v.Target, Sigma: v.Sigma}, nil
	case constraint.Torsion:
		return fileConstraint{fileTopo: fileTopo{Type: "torsion", I: v.I, J: v.J, K: v.K, L: v.L}, Target: v.Target, Sigma: v.Sigma}, nil
	case constraint.Position:
		pt := [3]float64(v.Target)
		return fileConstraint{fileTopo: fileTopo{Type: "position", I: v.I}, Point: &pt, Sigma: v.Sigma}, nil
	case constraint.DistanceBound:
		return fileConstraint{fileTopo: fileTopo{Type: "bound", I: v.I, J: v.J}, Lower: v.Lower, Upper: v.Upper, Sigma: v.Sigma}, nil
	default:
		return fileConstraint{}, fmt.Errorf("encode: unsupported constraint type %T", c)
	}
}

func fromFile(fc fileConstraint, nAtoms int) (constraint.Constraint, error) {
	check := func(idx ...int) error {
		for _, a := range idx {
			if a < 0 || a >= nAtoms {
				return fmt.Errorf("atom %d out of range [0,%d)", a, nAtoms)
			}
		}
		return nil
	}
	if fc.Sigma <= 0 || math.IsNaN(fc.Sigma) {
		return nil, fmt.Errorf("sigma %g must be positive", fc.Sigma)
	}
	switch fc.Type {
	case "distance":
		if err := check(fc.I, fc.J); err != nil {
			return nil, err
		}
		return constraint.Distance{I: fc.I, J: fc.J, Target: fc.Target, Sigma: fc.Sigma}, nil
	case "angle":
		if err := check(fc.I, fc.J, fc.K); err != nil {
			return nil, err
		}
		return constraint.Angle{I: fc.I, J: fc.J, K: fc.K, Target: fc.Target, Sigma: fc.Sigma}, nil
	case "torsion":
		if err := check(fc.I, fc.J, fc.K, fc.L); err != nil {
			return nil, err
		}
		return constraint.Torsion{I: fc.I, J: fc.J, K: fc.K, L: fc.L, Target: fc.Target, Sigma: fc.Sigma}, nil
	case "position":
		if err := check(fc.I); err != nil {
			return nil, err
		}
		if fc.Point == nil {
			return nil, fmt.Errorf("position constraint needs a point")
		}
		return constraint.Position{I: fc.I, Target: geom.Vec3(*fc.Point), Sigma: fc.Sigma}, nil
	case "bound":
		if err := check(fc.I, fc.J); err != nil {
			return nil, err
		}
		return constraint.DistanceBound{I: fc.I, J: fc.J, Lower: fc.Lower, Upper: fc.Upper, Sigma: fc.Sigma}, nil
	default:
		return nil, fmt.Errorf("unknown constraint type %q", fc.Type)
	}
}

func fromFileGroup(fg *fileGroup) *molecule.Group {
	if fg == nil {
		return nil
	}
	g := &molecule.Group{Name: fg.Name, AtomIDs: fg.Atoms}
	for _, c := range fg.Children {
		g.Children = append(g.Children, fromFileGroup(c))
	}
	return g
}
