package hier

import (
	"fmt"
	"sort"

	"phmse/internal/constraint"
	"phmse/internal/molecule"
)

// Automatic structure decomposition (§5 of the paper). The paper ships a
// "simple and non-optimal recursive bisection" and identifies
// constraint-graph partitioning as the proper solution; both are provided
// here so the ablation benchmarks can compare them against the
// domain-knowledge decomposition built by the molecule generators.

// RecursiveBisection builds a binary grouping of atoms [0, n) by splitting
// the index range in half until pieces have at most leafSize atoms. This is
// the baseline decomposition the paper mentions: it ignores the constraint
// graph entirely.
func RecursiveBisection(nAtoms, leafSize int) *molecule.Group {
	if leafSize < 1 {
		leafSize = 1
	}
	var rec func(lo, hi int) *molecule.Group
	rec = func(lo, hi int) *molecule.Group {
		g := &molecule.Group{Name: fmt.Sprintf("atoms[%d,%d)", lo, hi)}
		if hi-lo <= leafSize {
			for a := lo; a < hi; a++ {
				g.AtomIDs = append(g.AtomIDs, a)
			}
			return g
		}
		mid := lo + (hi-lo)/2
		g.Children = []*molecule.Group{rec(lo, mid), rec(mid, hi)}
		return g
	}
	return rec(0, nAtoms)
}

// GraphPartition builds a hierarchical grouping of atoms [0, n) by
// recursive two-way partitioning of the constraint graph: atoms are graph
// nodes, constraints contribute edges between every pair of their atoms,
// and each split minimizes the edge cut with a greedy BFS seed followed by
// Kernighan–Lin style refinement. Minimizing the cut maximizes the number
// of constraints assignable deep in the tree — the property §3.1 shows
// drives the hierarchical speedup.
func GraphPartition(nAtoms int, cons *constraint.Set, leafSize int) *molecule.Group {
	if leafSize < 1 {
		leafSize = 1
	}
	adj := buildAdjacency(nAtoms, cons)
	atoms := make([]int, nAtoms)
	for i := range atoms {
		atoms[i] = i
	}
	var rec func(ids []int, name string) *molecule.Group
	rec = func(ids []int, name string) *molecule.Group {
		g := &molecule.Group{Name: name}
		if len(ids) <= leafSize {
			g.AtomIDs = append([]int(nil), ids...)
			return g
		}
		left, right := bipartition(ids, adj)
		g.Children = []*molecule.Group{
			rec(left, name+".l"),
			rec(right, name+".r"),
		}
		return g
	}
	return rec(atoms, "gp")
}

// edge is a weighted adjacency entry.
type edge struct {
	to     int
	weight int
}

func buildAdjacency(nAtoms int, cons *constraint.Set) [][]edge {
	type key struct{ a, b int }
	weights := make(map[key]int)
	for r := range cons.Len() {
		atoms := cons.Atoms(r)
		for i := 0; i < len(atoms); i++ {
			for j := i + 1; j < len(atoms); j++ {
				a, b := int(atoms[i]), int(atoms[j])
				if a > b {
					a, b = b, a
				}
				if a >= 0 && b < nAtoms {
					weights[key{a, b}]++
				}
			}
		}
	}
	adj := make([][]edge, nAtoms)
	for k, w := range weights {
		adj[k.a] = append(adj[k.a], edge{k.b, w})
		adj[k.b] = append(adj[k.b], edge{k.a, w})
	}
	return adj
}

// bipartition splits ids into two nearly equal halves with a small edge
// cut: a BFS from a peripheral seed grows one side to half the atoms, then
// boundary swaps that reduce the cut are applied greedily.
func bipartition(ids []int, adj [][]edge) (left, right []int) {
	inSet := make(map[int]bool, len(ids))
	for _, a := range ids {
		inSet[a] = true
	}
	half := len(ids) / 2

	// BFS growth from the lowest-degree atom (a heuristic peripheral seed).
	seed := ids[0]
	best := 1 << 30
	for _, a := range ids {
		deg := 0
		for _, e := range adj[a] {
			if inSet[e.to] {
				deg += e.weight
			}
		}
		if deg < best {
			best, seed = deg, a
		}
	}
	side := make(map[int]bool, len(ids)) // true = left
	queue := []int{seed}
	visited := map[int]bool{seed: true}
	count := 0
	for len(queue) > 0 && count < half {
		a := queue[0]
		queue = queue[1:]
		side[a] = true
		count++
		// Deterministic neighbor order.
		nbrs := append([]edge(nil), adj[a]...)
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].to < nbrs[j].to })
		for _, e := range nbrs {
			if inSet[e.to] && !visited[e.to] {
				visited[e.to] = true
				queue = append(queue, e.to)
			}
		}
		if len(queue) == 0 && count < half {
			// Disconnected remainder: restart from any unvisited atom.
			for _, b := range ids {
				if !visited[b] {
					visited[b] = true
					queue = append(queue, b)
					break
				}
			}
		}
	}

	// Kernighan–Lin style refinement: single-pass greedy swaps of the
	// boundary pair with the best combined gain.
	gain := func(a int) int {
		// Cut reduction if a switches sides.
		g := 0
		for _, e := range adj[a] {
			if !inSet[e.to] {
				continue
			}
			if side[e.to] == side[a] {
				g -= e.weight
			} else {
				g += e.weight
			}
		}
		return g
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		var leftIds, rightIds []int
		for _, a := range ids {
			if side[a] {
				leftIds = append(leftIds, a)
			} else {
				rightIds = append(rightIds, a)
			}
		}
		bestGain, bi, bj := 0, -1, -1
		for _, a := range leftIds {
			ga := gain(a)
			if ga <= 0 {
				continue
			}
			for _, b := range rightIds {
				g := ga + gain(b)
				// Swapping neighbors double-counts their shared edge.
				for _, e := range adj[a] {
					if e.to == b {
						g -= 2 * e.weight
					}
				}
				if g > bestGain {
					bestGain, bi, bj = g, a, b
				}
			}
		}
		if bi >= 0 {
			side[bi] = false
			side[bj] = true
			improved = true
		}
		if !improved {
			break
		}
	}

	for _, a := range ids {
		if side[a] {
			left = append(left, a)
		} else {
			right = append(right, a)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		// Degenerate split (fully connected clique): fall back to halving.
		sorted := append([]int(nil), ids...)
		sort.Ints(sorted)
		return sorted[:half], sorted[half:]
	}
	return left, right
}
