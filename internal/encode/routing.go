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
)

// Route is a solve request read for routing: the warm-start reference,
// and the problem topology its consistent-hash key is rendered from when
// asked. A warm-started submission routes to the shard that retains the
// referenced posterior — the job id's instance qualifier, not the ring,
// names that shard — so a router that places it by Warm never pays for
// the key's sort and SHA-256.
type Route struct {
	// Warm is the request's warm_start reference; nil for a cold submission.
	Warm *WarmStartRef
	topo *fileProblem
}

// ReadRoute reads a solve request for routing in one pass of the request
// scanner, decoding only what routing needs: the warm-start reference,
// the atom count, each constraint's type tag and indices, and the tree.
// It refuses only what cannot be routed (not one JSON document, no atoms,
// a warm_start without a job id, a routed field of the wrong type) and
// leaves validation to ReadSolveRequest on the shard.
func ReadRoute(body []byte) (Route, error) {
	req, err := decodeRequest(body, &routeSchema)
	if err != nil {
		return Route{}, fmt.Errorf("encode: request: %w", err)
	}
	if req.Problem == nil || len(req.Problem.Atoms) == 0 {
		return Route{}, fmt.Errorf("encode: request has no problem with atoms")
	}
	if req.WarmStart != nil && req.WarmStart.Job == "" {
		return Route{}, fmt.Errorf("encode: warm_start reference has no job id")
	}
	return Route{Warm: req.WarmStart, topo: req.Problem}, nil
}

// Key renders the consistent-hash key: the problem's TopologyHash, equal
// to the daemon's for every request the daemon accepts.
func (r Route) Key() string {
	recs := newRecords(len(r.topo.Constraints))
	for _, c := range r.topo.Constraints {
		recs.add(c.appendRecord(recs.buf))
	}
	return hashTopology(len(r.topo.Atoms), recs, fromFileGroup(r.topo.Tree))
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
