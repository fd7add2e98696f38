package router

// The /admin/v1 control plane: runtime shard membership without a router
// restart.
//
//	GET    /admin/v1/shards               topology view
//	POST   /admin/v1/shards               add (or reactivate) a shard
//	DELETE /admin/v1/shards/{name}        remove (?mode=drain|immediate,
//	                                      ?deadline_ms= overrides the wait)
//	POST   /admin/v1/shards/{name}/drain  fence + migrate, keep membership
//
// {name} addresses a shard by its instance id or its base URL
// (URL-escaped, e.g. http%3A%2F%2Fhost%3A8080); the scheme-less host:port
// form of the base also matches. With Config.AdminToken set, every
// endpoint requires "Authorization: Bearer <token>".
//
// Every operation is a sequence of document steps (cluster.go) around one
// placement pass (repair.go), serialized under adminMu:
//
//	add / reactivate   set member → apply → place(all askable, changed arcs)
//	drain / remove     fence → apply → await quiesce → place(the fenced shard)
//	                   → mark drained / drop member → apply

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"phmse/internal/cluster"
	"phmse/internal/encode"
)

var errShardExists = errors.New("router: shard is already an active member")

// adminAuth wraps an admin handler with the bearer-token check.
func (rt *Router) adminAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.cfg.AdminToken != "" && r.Header.Get("Authorization") != "Bearer "+rt.cfg.AdminToken {
			writeError(w, http.StatusUnauthorized, encode.CodeUnauthorized,
				"missing or invalid admin token")
			return
		}
		h(w, r)
	}
}

// findShard resolves an admin {name} to a member: instance id first, then
// the base URL, then the base with its scheme stripped.
func (rt *Router) findShard(name string) *shard {
	for _, sh := range rt.shardList() {
		sh.mu.Lock()
		instance := sh.instance
		sh.mu.Unlock()
		stripped := strings.TrimPrefix(strings.TrimPrefix(sh.name, "https://"), "http://")
		if name == instance && instance != "" || name == sh.name || name == stripped {
			return sh
		}
	}
	return nil
}

// shardInfo snapshots one member in wire form.
func (rt *Router) shardInfo(sh *shard) encode.ShardInfo {
	inRing := sh.state().inRing()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return encode.ShardInfo{
		Base:       sh.base,
		Instance:   sh.instance,
		Alive:      sh.alive,
		Ready:      sh.ready,
		InRing:     inRing,
		DrainState: sh.drain,
		QueueDepth: sh.queueDepth,
		Running:    sh.running,
	}
}

func (rt *Router) handleAdminShards(w http.ResponseWriter, r *http.Request) {
	list := encode.ShardList{Shards: []encode.ShardInfo{}}
	for _, sh := range rt.shardList() {
		info := rt.shardInfo(sh)
		if info.InRing {
			list.RingShards++
		}
		list.Shards = append(list.Shards, info)
	}
	writeJSON(w, http.StatusOK, list)
}

func (rt *Router) handleAdminAddShard(w http.ResponseWriter, r *http.Request) {
	var req encode.AddShardRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
			fmt.Sprintf("decoding request: %v", err))
		return
	}
	base := strings.TrimRight(strings.TrimSpace(req.Base), "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
			fmt.Sprintf("base must be an http(s) URL, got %q", req.Base))
		return
	}
	resp, err := rt.addShard(r.Context(), base)
	if err != nil {
		writeError(w, http.StatusConflict, encode.CodeConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdminRetire serves DELETE /admin/v1/shards/{name} (remove: drain
// or immediate mode) and POST .../drain (fence and evacuate, stay a
// member). ?deadline_ms= overrides the configured quiesce wait.
func (rt *Router) handleAdminRetire(remove bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		mode := "drain"
		if remove && q.Get("mode") != "" {
			mode = q.Get("mode")
		}
		if mode != "drain" && mode != "immediate" {
			writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
				fmt.Sprintf("mode must be drain or immediate, got %q", mode))
			return
		}
		deadline := rt.cfg.DrainDeadline
		if v := q.Get("deadline_ms"); v != "" {
			ms, err := strconv.Atoi(v)
			if err != nil || ms < 0 {
				writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
					fmt.Sprintf("deadline_ms must be a non-negative integer, got %q", v))
				return
			}
			deadline = time.Duration(ms) * time.Millisecond
		}
		name := r.PathValue("name")
		sh := rt.findShard(name)
		if sh == nil {
			writeError(w, http.StatusNotFound, encode.CodeNotFound,
				fmt.Sprintf("no shard named %q", name))
			return
		}
		writeJSON(w, http.StatusOK, rt.retire(r.Context(), sh, remove, mode, deadline))
	}
}

// addShard registers a new backend (or reactivates a drained member) and
// places the posteriors of the arcs it took over onto it. A new shard
// enters pessimistic (out of the ring) and is admitted by reconciliation's
// synchronous probe, so a dead base URL is registered but owns no arcs
// until it answers.
func (rt *Router) addShard(ctx context.Context, base string) (*encode.AddShardResponse, error) {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.applyDocLocked(ctx) // fold in any adopted-but-unapplied peer document first

	doc := rt.cnode.Current()
	m := cluster.FindMember(&doc, base)
	if m != nil && m.DrainState == "" {
		rt.aud.append(encode.AuditEntry{Op: "add", Shard: base, Outcome: "conflict", Origin: rt.cfg.ReplicaID})
		return nil, errShardExists
	}
	op := "add"
	if m != nil { // a drained member: lift the fence, keep its quarantine history
		op = "reactivate"
	}
	oldRing := rt.currentRing()
	rt.step(ctx, func(doc *encode.ClusterDoc) bool {
		if m := cluster.FindMember(doc, base); m != nil {
			m.DrainState = ""
		} else {
			cluster.SetMember(doc, encode.ClusterMember{Base: base})
		}
		return true
	})
	arcs := encode.ChangedArcs(oldRing.encodePoints(), rt.currentRing().encodePoints())
	rep := rt.migrate(ctx, rt.shardsIn(shardState.askable), &arcs)
	rt.aud.append(encode.AuditEntry{
		Op: op, Shard: base, Origin: rt.cfg.ReplicaID,
		Outcome: migrationOutcome(rep.Failed), Migrated: rep.Migrated, Failed: rep.Failed,
	})
	return &encode.AddShardResponse{Shard: rt.shardInfo(rt.findShard(base)), Reactivated: m != nil, Migration: rep}, nil
}

// migrationOutcome condenses a placement pass for the audit log.
func migrationOutcome(failed int) string {
	if failed > 0 {
		return "partial"
	}
	return "ok"
}

// retire takes a member out of service — for good (remove), or keeping it
// registered as "drained" until it is removed or reactivated by a POST
// /admin/v1/shards with the same base. It fences the member in the
// document (peers stop routing to it within a gossip round, and it owns
// no arcs here at once), waits — bounded by deadline — for its in-flight
// jobs, places from the fenced shard alone (it owns nothing under the new
// ring, so everything it holds moves), then drops the member or marks it
// drained. Mode "immediate" skips the wait and the placement: the escape
// hatch for a shard that is already dead.
func (rt *Router) retire(ctx context.Context, sh *shard, remove bool, mode string, deadline time.Duration) *encode.DrainReport {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.applyDocLocked(ctx)
	rep := &encode.DrainReport{Mode: mode, Removed: remove}

	doc := rt.cnode.Current()
	m := cluster.FindMember(&doc, sh.name)
	if m == nil { // lost a race with a concurrent remove: nothing left to do
		rep.Shard = rt.shardInfo(sh)
		return rep
	}
	// A completed drain already evacuated the shard; draining it again is
	// a no-op. A removal re-runs the pass to pick up stragglers.
	if remove || m.DrainState != "drained" {
		rt.step(ctx, func(doc *encode.ClusterDoc) bool {
			m := cluster.FindMember(doc, sh.name)
			if m == nil || m.DrainState == "draining" {
				return false
			}
			m.DrainState = "draining"
			return true
		})
		if mode == "drain" {
			rep.TimedOut, rep.WaitedMillis, rep.InflightAtEnd = rt.awaitQuiesce(ctx, sh, deadline)
			rep.Migration = rt.migrate(ctx, []*shard{sh}, nil)
		}
	}
	rt.step(ctx, func(doc *encode.ClusterDoc) bool {
		if remove {
			return cluster.RemoveMember(doc, sh.name)
		}
		m := cluster.FindMember(doc, sh.name)
		if m == nil || m.DrainState == "drained" {
			return false
		}
		m.DrainState = "drained"
		return true
	})
	rep.Shard = rt.shardInfo(sh)
	entry := encode.AuditEntry{
		Op: "drain", Shard: sh.name, Origin: rt.cfg.ReplicaID,
		Outcome: migrationOutcome(rep.Migration.Failed), InflightAtEnd: rep.InflightAtEnd,
		Migrated: rep.Migration.Migrated, Failed: rep.Migration.Failed,
	}
	if remove {
		entry.Op, entry.Mode = "remove", mode
	}
	if rep.TimedOut {
		entry.Outcome = "timed_out"
	}
	rt.aud.append(entry)
	return rep
}

// awaitQuiesce polls the shard's /readyz until its queued+running count
// reaches zero, the deadline passes, or the shard stops answering
// repeatedly (a dead shard never quiesces — waiting out a long deadline
// on it would stall the admin call for nothing).
func (rt *Router) awaitQuiesce(ctx context.Context, sh *shard, deadline time.Duration) (timedOut bool, waitedMillis int64, inflight int) {
	start := time.Now()
	defer func() { waitedMillis = time.Since(start).Milliseconds() }()
	for failures := 0; ; {
		var rs encode.HealthStatus
		pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		_, answered := rt.probeGet(pctx, sh, "/readyz", &rs)
		cancel()
		if answered {
			failures = 0
			if inflight = rs.QueueDepth + rs.Running; inflight == 0 {
				return false, 0, 0
			}
		} else {
			failures++
			inflight = -1
		}
		if failures >= 3 || time.Since(start) >= deadline {
			return true, 0, inflight
		}
		select {
		case <-ctx.Done():
			return true, 0, inflight
		case <-time.After(50 * time.Millisecond):
		}
	}
}
