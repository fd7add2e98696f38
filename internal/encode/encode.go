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
	data, err := ReadBody(r, -1, 0)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return ReadProblemBytes(data)
}

// ReadBody reads all of r. size is the length the sender declared (an
// HTTP request's ContentLength), negative when unknown: a declared length
// up to limit is read into one buffer of that size, anything else into a
// buffer that doubles as it fills. The caller bounds the reader.
func ReadBody(r io.Reader, size, limit int64) ([]byte, error) {
	var b bytes.Buffer
	if 0 < size && size <= limit {
		b.Grow(int(size) + bytes.MinRead) // ReadFrom grows with less than MinRead free
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
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
	p.Constraints.Grow(len(fp.Constraints))
	for i, fc := range fp.Constraints {
		row, err := fromFile(fc, len(fp.Atoms))
		if err != nil {
			return nil, fmt.Errorf("encode: constraint %d: %w", i, err)
		}
		p.Constraints.Add(row)
	}
	p.Tree = fromFileGroup(fp.Tree)
	return p, nil
}

// ReadProblemBytes parses a problem from a JSON document in memory.
func ReadProblemBytes(data []byte) (*molecule.Problem, error) {
	fp, err := decodeProblem(data)
	defer putRecords(fp.Constraints)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	return fp.problem()
}

// toFile returns row r of the set as its wire record.
func toFile(s *constraint.Set, r int) fileConstraint {
	row := s.Row(r)
	fc := fileConstraint{fileTopo: topo(row.Kind, s.Atoms(r)), Sigma: row.Sigma}
	switch row.Kind {
	case constraint.KindPosition, constraint.KindDisplacement:
		pt := row.Val
		fc.Point = &pt
	case constraint.KindBound:
		fc.Lower, fc.Upper = row.Val[0], row.Val[1]
	default:
		fc.Target = row.Val[0]
	}
	return fc
}

// topo returns the topology record of a row of the given kind and atoms.
func topo(k constraint.Kind, atoms []int32) fileTopo {
	var idx [4]int
	for i, a := range atoms {
		idx[i] = int(a)
	}
	return fileTopo{Type: k.String(), I: idx[0], J: idx[1], K: idx[2], L: idx[3]}
}

// kindOf returns the kind a wire type tag names.
func kindOf(tag string) (constraint.Kind, bool) {
	for k := range constraint.NumKinds {
		if k.String() == tag {
			return k, true
		}
	}
	return 0, false
}

func fromFile(fc fileConstraint, nAtoms int) (constraint.Row, error) {
	if fc.Sigma <= 0 || math.IsNaN(fc.Sigma) {
		return constraint.Row{}, fmt.Errorf("sigma %g must be positive", fc.Sigma)
	}
	k, ok := kindOf(fc.Type)
	if !ok {
		return constraint.Row{}, fmt.Errorf("unknown constraint type %q", fc.Type)
	}
	row := constraint.Row{Kind: k, Atoms: [4]int{fc.I, fc.J, fc.K, fc.L}, Val: [3]float64{fc.Target}, Sigma: fc.Sigma}
	for _, a := range row.Atoms[:k.Atoms()] {
		if a < 0 || a >= nAtoms {
			return constraint.Row{}, fmt.Errorf("atom %d out of range [0,%d)", a, nAtoms)
		}
	}
	switch k {
	case constraint.KindPosition, constraint.KindDisplacement:
		if fc.Point == nil {
			return constraint.Row{}, fmt.Errorf("%s constraint needs a point", k)
		}
		row.Val = *fc.Point
	case constraint.KindBound:
		if fc.Lower < 0 || fc.Upper < 0 {
			return constraint.Row{}, fmt.Errorf("bound limits %g, %g must not be negative", fc.Lower, fc.Upper)
		}
		if 0 < fc.Upper && fc.Upper < fc.Lower {
			return constraint.Row{}, fmt.Errorf("bound upper limit %g is below its lower limit %g", fc.Upper, fc.Lower)
		}
		row.Val = [3]float64{fc.Lower, fc.Upper}
	}
	return row, nil
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
