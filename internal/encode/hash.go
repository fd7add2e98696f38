package encode

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
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
	s := &p.Constraints
	recs := newRecords(s.Len())
	for r := range s.Len() {
		recs.add(appendRecord(recs.buf, s.Kind(r).String(), s.Atoms(r)))
	}
	return hashTopology(len(p.Atoms), recs, p.Tree)
}

// records holds the constraint lines of a topology rendering back to back
// in one buffer, each followed by a newline; lines[i] spans line i
// without its newline.
type records struct {
	buf   []byte
	lines []span
}

type span struct{ lo, hi int }

func newRecords(n int) records {
	return records{buf: make([]byte, 0, 16*n), lines: make([]span, 0, n)}
}

// add takes r.buf with one more line appended to it.
func (r *records) add(buf []byte) {
	r.lines = append(r.lines, span{len(r.buf), len(buf)})
	r.buf = append(buf, '\n')
}

// hashTopology is the one canonical rendering behind TopologyHash,
// StructureHash and Route.Key: the atom count, the constraint records as a
// sorted multiset (recs is sorted in place), and the grouping tree.
func hashTopology(atoms int, recs records, tree *molecule.Group) string {
	slices.SortFunc(recs.lines, func(a, b span) int {
		return bytes.Compare(recs.buf[a.lo:a.hi], recs.buf[b.lo:b.hi])
	})
	h := sha256.New()
	b := strconv.AppendInt(append(make([]byte, 0, 64), "atoms:"...), int64(atoms), 10)
	h.Write(append(b, '\n'))
	for _, l := range recs.lines {
		h.Write(recs.buf[l.lo : l.hi+1]) // with its newline
	}
	h.Write(appendTree(append(b[:0], "tree:"...), tree))
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
	return hashTopology(len(p.Atoms), records{}, p.Tree)
}

// appendRecord appends a constraint's line of the topology hash: its type
// tag and the atom indices it couples.
func appendRecord[T int | int32](b []byte, tag string, atoms []T) []byte {
	b = append(b, tag...)
	for _, a := range atoms {
		b = strconv.AppendInt(append(b, ' '), int64(a), 10)
	}
	return b
}

// appendRecord appends the record's line of the topology hash: its type
// tag and as many atom indices as that type couples, every index for an
// unknown tag.
func (t fileTopo) appendRecord(b []byte) []byte {
	idx := [4]int{t.I, t.J, t.K, t.L}
	n := len(idx)
	if k, ok := kindOf(t.Type); ok {
		n = k.Atoms()
	}
	return appendRecord(b, t.Type, idx[:n])
}

// appendTree appends a canonical rendering of the grouping tree: a
// parenthesized pre-order traversal of directly-owned atom IDs.
func appendTree(b []byte, g *molecule.Group) []byte {
	if g == nil {
		return append(b, '-')
	}
	b = append(b, '(')
	for i, a := range g.AtomIDs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(a), 10)
	}
	for _, c := range g.Children {
		b = appendTree(b, c)
	}
	return append(b, ')')
}
