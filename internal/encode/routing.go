package encode

// Routing helpers for the sharding tier. phmse-router fronts N phmsed
// instances with a consistent-hash ring keyed on the problem's topology
// hash, so identical topologies always land on the shard whose plan cache
// and posterior store are already hot. The helpers live here, next to the
// hashes and the wire types, so the router never needs to import the
// serving internals: everything it routes on is part of the wire surface.

import (
	"fmt"
	"strings"

	"phmse/internal/constraint"
)

// Route is a solve request read for routing: the warm-start reference,
// and the problem topology its consistent-hash key is rendered from when
// asked. A warm-started submission routes to the shard that retains the
// referenced posterior — the job id's instance qualifier, not the ring,
// names that shard — so a router that places it by Warm never pays for
// the key's sort and SHA-256.
type Route struct {
	// Warm is the request's warm_start reference; nil for a cold submission.
	Warm  *WarmStartRef
	atoms int
	tree  *fileGroup
	// kinds and idx are the topology columns of the constraints with a
	// known type tag and indices an int32 holds: their kinds in order,
	// and their atoms, Kind.Atoms() each. odd holds the others whole,
	// which the daemon refuses but the key still renders.
	kinds []constraint.Kind
	idx   []int32
	odd   []fileTopo
}

// ReadRoute reads a solve request for routing in one pass of the request
// scanner, decoding only what routing needs: the warm-start reference,
// the atom count, each constraint's type tag and indices, and the tree.
// It refuses only what cannot be routed (not one JSON document, no atoms,
// a warm_start without a job id, a routed field of the wrong type) and
// leaves validation to ReadSolveRequest on the shard.
func ReadRoute(body []byte) (Route, error) {
	req, err := decodeRequest(body, &routeSchema)
	fp := req.Problem
	if fp != nil {
		defer putRecords(fp.Constraints)
	}
	if err != nil {
		return Route{}, fmt.Errorf("encode: request: %w", err)
	}
	if fp == nil || len(fp.Atoms) == 0 {
		return Route{}, fmt.Errorf("encode: request has no problem with atoms")
	}
	if req.WarmStart != nil && req.WarmStart.Job == "" {
		return Route{}, fmt.Errorf("encode: warm_start reference has no job id")
	}
	rt := Route{Warm: req.WarmStart, atoms: len(fp.Atoms), tree: fp.Tree,
		kinds: make([]constraint.Kind, 0, len(fp.Constraints)), idx: make([]int32, 0, 2*len(fp.Constraints))}
	for _, c := range fp.Constraints {
		idx := [4]int{c.I, c.J, c.K, c.L}
		k, ok := kindOf(c.Type)
		for _, a := range idx[:k.Atoms()] {
			ok = ok && a == int(int32(a))
		}
		if !ok {
			rt.odd = append(rt.odd, c.fileTopo)
			continue
		}
		rt.kinds = append(rt.kinds, k)
		for _, a := range idx[:k.Atoms()] {
			rt.idx = append(rt.idx, int32(a))
		}
	}
	return rt, nil
}

// Key renders the consistent-hash key: the problem's TopologyHash, equal
// to the daemon's for every request the daemon accepts.
func (r Route) Key() string {
	recs := newRecords(len(r.kinds) + len(r.odd))
	at := 0
	for _, k := range r.kinds {
		n := k.Atoms()
		recs.add(appendRecord(recs.buf, k.String(), r.idx[at:at+n]))
		at += n
	}
	for _, t := range r.odd { // the hash sorts the records: order is free
		recs.add(t.appendRecord(recs.buf))
	}
	return hashTopology(r.atoms, recs, fromFileGroup(r.tree))
}

// SolveRouting extracts the routing decision of a solve request without
// acting on it: the consistent-hash key and the warm-start reference, if
// any. It is ReadRoute with the key rendered at once.
func SolveRouting(body []byte) (string, *WarmStartRef, error) {
	r, err := ReadRoute(body)
	if err != nil {
		return "", nil, err
	}
	return r.Key(), r.Warm, nil
}

// QualifyJob prefixes a job id with the instance that minted it:
// QualifyJob("s1", "job-000042") = "s1.job-000042". An empty instance
// leaves the id unqualified, the single-daemon form.
func QualifyJob(instance, id string) string {
	if instance == "" {
		return id
	}
	return instance + "." + id
}

// JobInstance returns the instance qualifier of a shard-qualified job id
// ("s1.job-000042" → "s1") and "" for unqualified ids, which predate the
// sharding tier or come from a daemon run without -instance.
func JobInstance(id string) string {
	if i := strings.Index(id, ".job-"); i > 0 {
		return id[:i]
	}
	return ""
}
