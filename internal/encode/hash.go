package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"

	"phmse/internal/molecule"
)

// TopologyHash returns a content hash of the problem's topology: the atom
// count, the constraint graph (constraint types and the atom indices they
// couple), and the hierarchical grouping. Measurement values — targets,
// sigmas, reference positions, names — are deliberately excluded: two
// problems with equal hashes decompose and schedule identically, so the
// hash is the key under which the serving layer caches planning artifacts
// across repeated solves.
//
// The hash is canonical: it does not depend on the order constraints appear
// in (the constraint set is hashed as a sorted multiset) nor, since it is
// computed from the parsed Problem, on JSON field order in a problem file.
func TopologyHash(p *molecule.Problem) string {
	recs := make([]string, len(p.Constraints))
	for i, c := range p.Constraints {
		if fc, err := toFile(c); err == nil {
			recs[i] = fc.record()
		} else { // no wire form: hash what the type exposes
			recs[i] = fmt.Sprintf("%T %v", c, c.Atoms())
		}
	}
	return hashTopology(len(p.Atoms), recs, p.Tree)
}

// hashTopology is the one canonical rendering behind TopologyHash,
// StructureHash and SolveRouting: the atom count, the constraint records
// as a sorted multiset (recs is sorted in place), and the grouping tree.
func hashTopology(atoms int, recs []string, tree *molecule.Group) string {
	h := sha256.New()
	fmt.Fprintf(h, "atoms:%d\n", atoms)
	sort.Strings(recs)
	for _, r := range recs {
		io.WriteString(h, r)
		io.WriteString(h, "\n")
	}
	io.WriteString(h, "tree:")
	hashTree(h, tree)
	return hex.EncodeToString(h.Sum(nil))
}

// StructureHash returns a content hash of the problem's molecule alone:
// the atom count and the hierarchical grouping, deliberately excluding the
// constraint set. A stored posterior (positions + covariance per atom) is
// reusable by any problem over the same molecule — warm-start re-solves
// add, drop, or re-measure constraints without invalidating it — so this
// is the key under which posterior compatibility is checked. Two problems
// with different StructureHash values index different atoms and must not
// exchange posteriors.
func StructureHash(p *molecule.Problem) string {
	return hashTopology(len(p.Atoms), nil, p.Tree)
}

// record renders the constraint's line of the topology hash: its type tag
// and as many atom indices as that type couples.
func (t fileTopo) record() string {
	idx := [4]int{t.I, t.J, t.K, t.L}
	n := len(idx) // torsion; an unknown tag renders every index
	switch t.Type {
	case "position":
		n = 1
	case "distance", "bound":
		n = 2
	case "angle":
		n = 3
	}
	b := make([]byte, 0, len(t.Type)+8*n)
	b = append(b, t.Type...)
	for _, a := range idx[:n] {
		b = strconv.AppendInt(append(b, ' '), int64(a), 10)
	}
	return string(b)
}

// hashTree writes a canonical rendering of the grouping tree: a
// parenthesized pre-order traversal of directly-owned atom IDs.
func hashTree(w io.Writer, g *molecule.Group) {
	if g == nil {
		io.WriteString(w, "-")
		return
	}
	io.WriteString(w, "(")
	for i, a := range g.AtomIDs {
		if i > 0 {
			io.WriteString(w, ",")
		}
		fmt.Fprintf(w, "%d", a)
	}
	for _, c := range g.Children {
		hashTree(w, c)
	}
	io.WriteString(w, ")")
}
