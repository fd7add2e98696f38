package client

// Admin is the typed client of the phmse-router /admin/v1 control plane,
// mirroring the v1 job client's shape: context-aware methods over the
// encode wire types, with non-2xx responses mapped onto *APIError.
//
//	a := client.NewAdmin("http://router:8081", token)
//	rep, err := a.RemoveShard(ctx, "s2", client.RemoveShardOptions{})
//	if err == nil && rep.Migration.Failed > 0 { ... }

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"phmse/internal/encode"
)

// Admin drives one router's admin API. Safe for concurrent use.
type Admin struct {
	c *Client
}

// NewAdmin builds an admin client for the router at base. token is the
// router's -admin-token ("" when the router runs its admin plane open);
// further options apply to the underlying client (WithHTTPClient).
func NewAdmin(base, token string, opts ...Option) *Admin {
	if token != "" {
		opts = append(opts, WithBearerToken(token))
	}
	return &Admin{c: New(base, opts...)}
}

// Shards returns the router's current shard topology view.
func (a *Admin) Shards(ctx context.Context) (encode.ShardList, error) {
	var out encode.ShardList
	if err := a.c.do(ctx, http.MethodGet, "/admin/v1/shards", nil, &out); err != nil {
		return encode.ShardList{}, err
	}
	return out, nil
}

// AddShard registers a new backend (or reactivates a drained member) by
// base URL. The router probes it, admits it to the ring once it answers
// ready, and runs a migration pass moving remapped posteriors onto it;
// adding an active member fails with code conflict.
func (a *Admin) AddShard(ctx context.Context, base string) (encode.AddShardResponse, error) {
	body, err := json.Marshal(encode.AddShardRequest{Base: base})
	if err != nil {
		return encode.AddShardResponse{}, err
	}
	var out encode.AddShardResponse
	if err := a.c.do(ctx, http.MethodPost, "/admin/v1/shards", body, &out); err != nil {
		return encode.AddShardResponse{}, err
	}
	return out, nil
}

// RemoveShardOptions shape a removal. The zero value is the graceful
// default: drain mode with the router's configured deadline.
type RemoveShardOptions struct {
	// Immediate skips the drain: no in-flight wait, no migration — for a
	// shard that is already dead and can serve nothing.
	Immediate bool
	// Deadline overrides the router's drain deadline (0 keeps it).
	Deadline time.Duration
}

// RemoveShard ejects a shard from membership. name is the shard's
// instance id or base URL.
func (a *Admin) RemoveShard(ctx context.Context, name string, opts RemoveShardOptions) (encode.DrainReport, error) {
	q := url.Values{}
	if opts.Immediate {
		q.Set("mode", "immediate")
	} else {
		q.Set("mode", "drain")
	}
	if opts.Deadline > 0 {
		q.Set("deadline_ms", strconv.FormatInt(opts.Deadline.Milliseconds(), 10))
	}
	var out encode.DrainReport
	path := "/admin/v1/shards/" + url.PathEscape(name) + "?" + q.Encode()
	if err := a.c.do(ctx, http.MethodDelete, path, nil, &out); err != nil {
		return encode.DrainReport{}, err
	}
	return out, nil
}

// Repair runs one synchronous anti-entropy sweep: the router indexes
// every live shard's posteriors, diffs holdings against current ring
// ownership, and re-drives misplaced posteriors to their owners.
func (a *Admin) Repair(ctx context.Context) (encode.RepairReport, error) {
	var out encode.RepairReport
	if err := a.c.do(ctx, http.MethodPost, "/admin/v1/repair", nil, &out); err != nil {
		return encode.RepairReport{}, err
	}
	return out, nil
}

// Audit returns the most recent limit admin audit entries (membership
// changes and effective repair sweeps), oldest first; limit 0 keeps the
// router's default.
func (a *Admin) Audit(ctx context.Context, limit int) (encode.AuditLog, error) {
	path := "/admin/v1/audit"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var out encode.AuditLog
	if err := a.c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return encode.AuditLog{}, err
	}
	return out, nil
}

// ClusterState returns the router replica's replicated-control-plane
// view: its replica id, its current epoch-stamped membership document,
// and the exchange health of its configured gossip peers.
func (a *Admin) ClusterState(ctx context.Context) (encode.ClusterView, error) {
	var out encode.ClusterView
	if err := a.c.do(ctx, http.MethodGet, "/cluster/v1/state", nil, &out); err != nil {
		return encode.ClusterView{}, err
	}
	return out, nil
}

// Peers returns just the peer-health slice of the replica's cluster
// view — the quick "is gossip healthy" probe.
func (a *Admin) Peers(ctx context.Context) ([]encode.ClusterPeer, error) {
	view, err := a.ClusterState(ctx)
	if err != nil {
		return nil, err
	}
	return view.Peers, nil
}

// DrainShard fences a shard out of the ring, waits for its in-flight
// jobs (bounded by deadline; 0 keeps the router's default), and migrates
// its retained posteriors — but keeps it registered in state "drained",
// to be removed or reactivated (AddShard with the same base) later.
func (a *Admin) DrainShard(ctx context.Context, name string, deadline time.Duration) (encode.DrainReport, error) {
	path := "/admin/v1/shards/" + url.PathEscape(name) + "/drain"
	if deadline > 0 {
		path += "?deadline_ms=" + strconv.FormatInt(deadline.Milliseconds(), 10)
	}
	var out encode.DrainReport
	if err := a.c.do(ctx, http.MethodPost, path, nil, &out); err != nil {
		return encode.DrainReport{}, err
	}
	return out, nil
}
