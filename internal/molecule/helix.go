package molecule

import (
	"fmt"
	"math"

	"phmse/internal/constraint"
	"phmse/internal/geom"
)

// RNA double-helix generator (§3.1 of the paper). The helix is a series of
// base pairs twisted into a spiral; each base consists of a common backbone
// and a distinguishing sidechain. Sizes are chosen so a base pair holds 43
// pseudo-atoms, matching the paper's Table 1 (helix length 1 → 43 atoms).

// BaseType enumerates the four RNA bases.
type BaseType int

// The four RNA bases.
const (
	BaseA BaseType = iota
	BaseC
	BaseG
	BaseU
)

var baseNames = [...]string{"A", "C", "G", "U"}

// String returns the one-letter base code.
func (b BaseType) String() string { return baseNames[b] }

// Complement returns the Watson–Crick partner (A↔U, C↔G).
func (b BaseType) Complement() BaseType {
	switch b {
	case BaseA:
		return BaseU
	case BaseU:
		return BaseA
	case BaseC:
		return BaseG
	default:
		return BaseC
	}
}

// sidechainSize gives the pseudo-atom count of each base's sidechain; the
// purines (A, G) are larger than the pyrimidines (C, U). With the common
// 12-atom backbone, every Watson–Crick pair totals 43 atoms.
var sidechainSize = map[BaseType]int{BaseA: 10, BaseG: 11, BaseC: 8, BaseU: 9}

// BackboneAtoms is the pseudo-atom count of the common backbone (ribose +
// phosphate).
const BackboneAtoms = 12

// A-form RNA helix parameters.
const (
	helixRise    = 2.8 // Å rise per base pair
	helixTwist   = 32.7 * math.Pi / 180
	helixRadius  = 8.8 // Å backbone radius
	strandOffset = 0.8 * math.Pi
)

// Helix generation cutoffs (Å), tuned so the constraint counts track the
// paper's Table 1 (about 675 scalar constraints per base pair plus about
// 220 between adjacent pairs).
const (
	cutBackbone = 7.5  // category 1: within a backbone
	cutSide     = 7.5  // category 2: within a sidechain
	cutBaseLink = 6.5  // category 3: backbone to sidechain of one base
	cutPair     = 10.2 // category 4: across a base pair
	cutStack    = 5.5  // category 5: across adjacent base pairs
)

// Measurement standard deviations (Å) by constraint category.
const (
	sigmaCovalent = 0.08
	sigmaPair     = 0.20
	sigmaStack    = 0.30
)

// base records the atom-index layout of one generated base.
type base struct {
	typ      BaseType
	backbone []int
	side     []int
}

func (b base) all() []int {
	out := append([]int(nil), b.backbone...)
	return append(out, b.side...)
}

// Helix generates an RNA double helix of the given number of base pairs,
// with reference geometry, the five constraint categories of §3.1, and the
// Figure 2 hierarchical decomposition (recursive halving down to base
// pairs, base pairs into bases, bases into backbone and sidechain leaves).
func Helix(basePairs int) *Problem {
	if basePairs < 1 {
		panic("molecule: helix needs at least one base pair")
	}
	p := &Problem{Name: fmt.Sprintf("helix-%dbp", basePairs)}

	// Lay down atoms: for each base pair, one base on each antiparallel
	// strand. Deterministic small perturbations (hash-based) break exact
	// symmetries so no constraint Jacobian is degenerate at the reference.
	pairs := make([][2]base, basePairs)
	seq := []BaseType{BaseA, BaseG, BaseC, BaseU}
	for i := 0; i < basePairs; i++ {
		t := seq[i%len(seq)]
		pairs[i][0] = p.growBase(t, i, 0)
		pairs[i][1] = p.growBase(t.Complement(), i, 1)
	}

	// Category 1–3: within each base.
	var cons constraint.Set
	for _, pair := range pairs {
		for s := 0; s < 2; s++ {
			b := pair[s]
			allPairsWithin(p.Atoms, b.backbone, b.backbone, cutBackbone, sigmaCovalent, &cons)
			allPairsWithin(p.Atoms, b.side, b.side, cutSide, sigmaCovalent, &cons)
			allPairsWithin(p.Atoms, b.backbone, b.side, cutBaseLink, sigmaCovalent, &cons)
		}
	}
	// Category 4: across each base pair.
	for _, pair := range pairs {
		allPairsWithin(p.Atoms, pair[0].all(), pair[1].all(), cutPair, sigmaPair, &cons)
	}
	// Category 5: between adjacent base pairs (stacking distances); these
	// are the constraints consumed when two sub-helices are joined.
	for i := 0; i+1 < basePairs; i++ {
		a := append(pairs[i][0].all(), pairs[i][1].all()...)
		b := append(pairs[i+1][0].all(), pairs[i+1][1].all()...)
		allPairsWithin(p.Atoms, a, b, cutStack, sigmaStack, &cons)
	}
	p.Constraints = cons

	// Figure 2 decomposition.
	p.Tree = helixTree(pairs, 0, basePairs)
	p.Tree.Name = p.Name
	return p
}

// growBase appends the atoms of one base and returns their indices.
// strand 0 runs 5'→3' with +z; strand 1 is antiparallel.
func (p *Problem) growBase(t BaseType, pairIdx, strand int) base {
	dir := 1.0
	phase := 0.0
	if strand == 1 {
		dir = -1
		phase = strandOffset
	}
	theta := float64(pairIdx)*helixTwist + phase
	z := float64(pairIdx) * helixRise

	residue := 2*pairIdx + strand
	b := base{typ: t}
	// Backbone: arc of pseudo-atoms near the helix surface.
	for k := 0; k < BackboneAtoms; k++ {
		r := helixRadius + 0.5*math.Sin(float64(k)*1.1+float64(strand))
		a := theta + dir*(0.055*float64(k))
		zz := z + dir*(0.16*float64(k)-1.0) + jitter(residue, k)
		p.Atoms = append(p.Atoms, Atom{
			Name:    fmt.Sprintf("B%d", k),
			Residue: residue,
			Pos:     geom.Vec3{r * math.Cos(a), r * math.Sin(a), zz},
		})
		b.backbone = append(b.backbone, len(p.Atoms)-1)
	}
	// Sidechain: pseudo-atoms stepping inward toward the helix axis, so the
	// tips of paired bases meet near the middle.
	n := sidechainSize[t]
	for k := 0; k < n; k++ {
		r := 6.8 - 0.58*float64(k)
		a := theta + dir*(0.04*float64(k)+0.02)
		zz := z + 0.25*math.Sin(float64(k)*0.9+float64(strand)) + jitter(residue, 100+k)
		p.Atoms = append(p.Atoms, Atom{
			Name:    fmt.Sprintf("S%d", k),
			Residue: residue,
			Pos:     geom.Vec3{r * math.Cos(a), r * math.Sin(a), zz},
		})
		b.side = append(b.side, len(p.Atoms)-1)
	}
	return b
}

// jitter returns a deterministic perturbation in (−0.15, 0.15) Å that
// breaks exact geometric degeneracies.
func jitter(residue, k int) float64 {
	h := uint64(residue)*2654435761 + uint64(k)*40503 + 12345
	h ^= h >> 13
	h *= 1099511628211
	h ^= h >> 7
	return (float64(h%1000)/1000 - 0.5) * 0.3
}

// helixTree builds the Figure 2 decomposition of base pairs [lo, hi).
func helixTree(pairs [][2]base, lo, hi int) *Group {
	if hi-lo == 1 {
		pair := pairs[lo]
		bp := &Group{Name: fmt.Sprintf("bp%d", lo)}
		for s := 0; s < 2; s++ {
			b := pair[s]
			baseNode := &Group{Name: fmt.Sprintf("bp%d.%s%d", lo, b.typ, s)}
			baseNode.Children = []*Group{
				{Name: baseNode.Name + ".bb", AtomIDs: b.backbone},
				{Name: baseNode.Name + ".sc", AtomIDs: b.side},
			}
			bp.Children = append(bp.Children, baseNode)
		}
		return bp
	}
	mid := lo + (hi-lo)/2
	return &Group{
		Name:     fmt.Sprintf("helix[%d,%d)", lo, hi),
		Children: []*Group{helixTree(pairs, lo, mid), helixTree(pairs, mid, hi)},
	}
}
