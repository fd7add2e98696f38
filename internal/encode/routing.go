package encode

// Routing helpers for the sharding tier. phmse-router fronts N phmsed
// instances with a consistent-hash ring keyed on the problem's topology
// hash, so identical topologies always land on the shard whose plan cache
// and posterior store are already hot. The helpers live here, next to the
// hashes and the wire types, so the router never needs to import the
// serving internals: everything it routes on is part of the wire surface.

import (
	"encoding/json"
	"fmt"
	"strings"
)

// routeRequest is the routing-relevant shape of a solve request: atoms
// are only counted, constraints keep their type tag and indices, and no
// measurement value is parsed.
type routeRequest struct {
	Problem *struct {
		Atoms       []struct{} `json:"atoms"`
		Constraints []fileTopo `json:"constraints"`
		Tree        *fileGroup `json:"tree"`
	} `json:"problem"`
	WarmStart *WarmStartRef `json:"warm_start"`
}

// SolveRouting extracts the routing decision of a solve request without
// acting on it: the consistent-hash key (the problem's TopologyHash) and
// the warm-start reference, if any. A warm-started submission must route
// to the shard that retains the referenced posterior — the job id's
// instance qualifier, not the ring, names that shard — so the router needs
// both. It is one pass over the body into routeRequest, feeding the
// renderer TopologyHash uses, so the key equals the daemon's for every
// request the daemon accepts; it refuses only what cannot be routed (not
// one JSON document, no atoms, a warm_start without a job id) and leaves
// validation to ReadSolveRequest on the shard.
func SolveRouting(body []byte) (string, *WarmStartRef, error) {
	var req routeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", nil, fmt.Errorf("encode: request: %w", err)
	}
	if req.Problem == nil || len(req.Problem.Atoms) == 0 {
		return "", nil, fmt.Errorf("encode: request has no problem with atoms")
	}
	if req.WarmStart != nil && req.WarmStart.Job == "" {
		return "", nil, fmt.Errorf("encode: warm_start reference has no job id")
	}
	recs := make([]string, len(req.Problem.Constraints))
	for i, c := range req.Problem.Constraints {
		recs[i] = c.record()
	}
	key := hashTopology(len(req.Problem.Atoms), recs, fromFileGroup(req.Problem.Tree))
	return key, req.WarmStart, nil
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
