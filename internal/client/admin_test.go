package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"phmse/internal/encode"
)

// adminStub records every request the Admin client issues and serves the
// canned response — the wire contract (method, path, query, bearer
// header, body) is pinned here without a router behind it.
type adminCall struct {
	method, path, query, auth string
	body                      []byte
}

func adminStub(t *testing.T, token string, status int, resp any) (*Admin, *[]adminCall) {
	t.Helper()
	calls := &[]adminCall{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		*calls = append(*calls, adminCall{
			method: r.Method, path: r.URL.EscapedPath(), query: r.URL.RawQuery,
			auth: r.Header.Get("Authorization"), body: body,
		})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return NewAdmin(ts.URL, token), calls
}

func TestAdminShardsWire(t *testing.T) {
	want := encode.ShardList{
		Shards:     []encode.ShardInfo{{Base: "http://s1:8080", Instance: "s1", Alive: true, Ready: true, InRing: true, QueueDepth: 3}},
		RingShards: 1,
	}
	a, calls := adminStub(t, "tok", http.StatusOK, want)
	got, err := a.Shards(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 1 || got.Shards[0] != want.Shards[0] || got.RingShards != 1 {
		t.Fatalf("decoded list: %+v", got)
	}
	c := (*calls)[0]
	if c.method != http.MethodGet || c.path != "/admin/v1/shards" {
		t.Fatalf("wire: %s %s", c.method, c.path)
	}
	if c.auth != "Bearer tok" {
		t.Fatalf("authorization header %q, want bearer token", c.auth)
	}
}

func TestAdminAddShardWire(t *testing.T) {
	a, calls := adminStub(t, "tok", http.StatusOK, encode.AddShardResponse{
		Shard:     encode.ShardInfo{Base: "http://s3:8080", InRing: true},
		Migration: encode.MigrationReport{Migrated: 2, Bytes: 512},
	})
	resp, err := a.AddShard(context.Background(), "http://s3:8080")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Migration.Migrated != 2 || !resp.Shard.InRing {
		t.Fatalf("decoded response: %+v", resp)
	}
	c := (*calls)[0]
	if c.method != http.MethodPost || c.path != "/admin/v1/shards" {
		t.Fatalf("wire: %s %s", c.method, c.path)
	}
	var req encode.AddShardRequest
	if err := json.Unmarshal(c.body, &req); err != nil || req.Base != "http://s3:8080" {
		t.Fatalf("request body %q: %v", c.body, err)
	}
}

func TestAdminRemoveShardWire(t *testing.T) {
	a, calls := adminStub(t, "", http.StatusOK, encode.DrainReport{Mode: "drain", Removed: true})
	if _, err := a.RemoveShard(context.Background(), "s2", RemoveShardOptions{Deadline: 1500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	c := (*calls)[0]
	if c.method != http.MethodDelete || c.path != "/admin/v1/shards/s2" {
		t.Fatalf("wire: %s %s", c.method, c.path)
	}
	q := c.query
	if q != "deadline_ms=1500&mode=drain" {
		t.Fatalf("query %q, want drain mode with deadline_ms=1500", q)
	}
	if c.auth != "" {
		t.Fatalf("tokenless admin sent authorization %q", c.auth)
	}

	// Immediate mode, base-URL shard name escaped into one path segment.
	if _, err := a.RemoveShard(context.Background(), "http://s2:8080", RemoveShardOptions{Immediate: true}); err != nil {
		t.Fatal(err)
	}
	c = (*calls)[1]
	// EscapedPath of the request URL must keep the base as one segment.
	if want := "/admin/v1/shards/" + url.PathEscape("http://s2:8080"); c.path != want {
		t.Fatalf("path %q does not carry the escaped base %q", c.path, want)
	}
	if c.query != "mode=immediate" {
		t.Fatalf("query %q, want mode=immediate with no deadline", c.query)
	}
}

func TestAdminDrainShardWire(t *testing.T) {
	a, calls := adminStub(t, "tok", http.StatusOK, encode.DrainReport{Mode: "drain", Shard: encode.ShardInfo{DrainState: "drained"}})
	rep, err := a.DrainShard(context.Background(), "s1", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shard.DrainState != "drained" {
		t.Fatalf("decoded report: %+v", rep)
	}
	c := (*calls)[0]
	if c.method != http.MethodPost || c.path != "/admin/v1/shards/s1/drain" || c.query != "deadline_ms=2000" {
		t.Fatalf("wire: %s %s?%s", c.method, c.path, c.query)
	}
}

func TestAdminErrorMapping(t *testing.T) {
	a, _ := adminStub(t, "tok", http.StatusConflict, encode.ErrorEnvelope{
		Error: encode.ErrorBody{Code: encode.CodeConflict, Message: "already a member"},
	})
	_, err := a.AddShard(context.Background(), "http://s1:8080")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T, want *APIError: %v", err, err)
	}
	if ae.HTTPStatus != http.StatusConflict || ae.Code != encode.CodeConflict {
		t.Fatalf("mapped error: %+v", ae)
	}
	if ae.Message != "already a member" {
		t.Fatalf("message %q", ae.Message)
	}
}

func TestAdminClusterStateWire(t *testing.T) {
	want := encode.ClusterView{
		ReplicaID: "ra",
		Doc: encode.ClusterDoc{
			Epoch:  7,
			Origin: "rb",
			Members: []encode.ClusterMember{
				{Base: "http://s1:8080"},
				{Base: "http://s2:8080", DrainState: "drained"},
			},
			Hash: "deadbeef",
		},
		Peers: []encode.ClusterPeer{{Base: "http://rb:8090", InSync: true, LastContactUnixMs: 1700000000001}},
	}
	a, calls := adminStub(t, "tok", http.StatusOK, want)
	got, err := a.ClusterState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.ReplicaID != "ra" || got.Doc.Epoch != 7 || got.Doc.Origin != "rb" || got.Doc.Hash != "deadbeef" {
		t.Fatalf("decoded view: %+v", got)
	}
	if len(got.Doc.Members) != 2 || got.Doc.Members[1] != want.Doc.Members[1] {
		t.Fatalf("decoded members: %+v", got.Doc.Members)
	}
	if len(got.Peers) != 1 || got.Peers[0] != want.Peers[0] {
		t.Fatalf("decoded peers: %+v", got.Peers)
	}
	c := (*calls)[0]
	if c.method != http.MethodGet || c.path != "/cluster/v1/state" || c.query != "" {
		t.Fatalf("wire: %s %s?%s", c.method, c.path, c.query)
	}
	if c.auth != "Bearer tok" {
		t.Fatalf("authorization header %q, want bearer token", c.auth)
	}
}

func TestAdminPeersWire(t *testing.T) {
	view := encode.ClusterView{
		ReplicaID: "ra",
		Peers: []encode.ClusterPeer{
			{Base: "http://rb:8090", InSync: true},
			{Base: "http://rc:8090", LastError: "dial tcp: connection refused"},
		},
	}
	a, calls := adminStub(t, "", http.StatusOK, view)
	peers, err := a.Peers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0] != view.Peers[0] || peers[1] != view.Peers[1] {
		t.Fatalf("decoded peers: %+v", peers)
	}
	c := (*calls)[0]
	if c.method != http.MethodGet || c.path != "/cluster/v1/state" {
		t.Fatalf("wire: %s %s", c.method, c.path)
	}
	if c.auth != "" {
		t.Fatalf("authorization header %q on an open admin plane", c.auth)
	}
}
