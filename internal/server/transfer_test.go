package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"phmse/internal/client"
	"phmse/internal/encode"
)

// doAuth issues a raw request with an optional bearer token and decodes
// the JSON response — the transfer endpoints are exercised at wire level
// because the router's migration pass speaks raw HTTP, not the client.
func doAuth(t *testing.T, method, url, token string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestPosteriorTransferRoundTrip(t *testing.T) {
	const token = "transfer-secret"
	_, srcTS, srcC := newTestServer(t, Config{MaxProcs: 2, InstanceID: "src", AdminToken: token})
	dstSrv, dstTS, dstC := newTestServer(t, Config{MaxProcs: 2, InstanceID: "dst", AdminToken: token})
	ctx := context.Background()

	p := helix(2)
	params := quickParams()
	params.KeepPosterior = true
	st := submit(t, srcC, p, params)
	waitState(t, srcC, st.ID, StateDone)

	// Index lists the retained posterior with its routing hashes.
	var idx encode.PosteriorIndex
	if code := doAuth(t, http.MethodGet, srcTS.URL+"/v1/posteriors", "", nil, &idx); code != http.StatusOK {
		t.Fatalf("index: status %d", code)
	}
	if len(idx.Posteriors) != 1 {
		t.Fatalf("index: %d posteriors, want 1", len(idx.Posteriors))
	}
	info := idx.Posteriors[0]
	if info.Job != st.ID || info.TopologyHash == "" || info.StructureHash == "" || info.Bytes <= 0 {
		t.Fatalf("index entry incomplete: %+v", info)
	}
	// Prefix filtering: exact id matches, a foreign prefix does not.
	if code := doAuth(t, http.MethodGet, srcTS.URL+"/v1/posteriors?prefix=zzz", "", nil, &idx); code != http.StatusOK || len(idx.Posteriors) != 0 {
		t.Fatalf("prefix=zzz: status %d, %d entries", code, len(idx.Posteriors))
	}

	doc, err := srcC.Posterior(ctx, st.ID, true)
	if err != nil {
		t.Fatalf("fetching posterior: %v", err)
	}
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	// Import on the destination, exactly as the router's migration does.
	var imported encode.PosteriorInfo
	if code := doAuth(t, http.MethodPut, dstTS.URL+"/v1/posteriors/"+st.ID, token, body, &imported); code != http.StatusOK {
		t.Fatalf("put: status %d", code)
	}
	if imported.Job != st.ID || imported.StructureHash != info.StructureHash {
		t.Fatalf("import response mismatch: %+v vs index %+v", imported, info)
	}

	// The destination can now warm-start from the migrated posterior even
	// though it never ran the source job.
	warm, err := dstC.WarmStart(ctx, p, quickParams(), st.ID)
	if err != nil {
		t.Fatalf("warm start on destination: %v", err)
	}
	wst := waitState(t, dstC, warm.ID, StateDone)
	if wst.WarmStartFrom != st.ID {
		t.Fatalf("warm job records warm_start_from=%q, want %q", wst.WarmStartFrom, st.ID)
	}

	// Source delete (the migration ack step), then a duplicate delete 404s.
	if code := doAuth(t, http.MethodDelete, srcTS.URL+"/v1/posteriors/"+st.ID, token, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := doAuth(t, http.MethodGet, srcTS.URL+"/v1/posteriors", "", nil, &idx); code != http.StatusOK || len(idx.Posteriors) != 0 {
		t.Fatalf("source index after delete: status %d, %d entries", code, len(idx.Posteriors))
	}
	if code := doAuth(t, http.MethodDelete, srcTS.URL+"/v1/posteriors/"+st.ID, token, nil, nil); code != http.StatusNotFound {
		t.Fatalf("duplicate delete: status %d, want 404", code)
	}
	stats := dstSrv.mgr.posteriors.stats()
	if stats.imported != 1 || stats.entries != 1 {
		t.Fatalf("destination stats: imported=%d entries=%d, want 1/1", stats.imported, stats.entries)
	}
}

// TestLargeDiagonalPosteriorTransfer: a ribo30S-sized (866-atom)
// hierarchical posterior — 54 MB in the store and over the body cap as
// JSON while it carried the 3n×3n matrix — is O(n) in the store and on the
// wire, and goes store → cov=full export → import on a second server →
// warm-start resolution intact.
func TestLargeDiagonalPosteriorTransfer(t *testing.T) {
	const n = 866
	src, srcTS, _ := newTestServer(t, Config{InstanceID: "src"})
	dst, dstTS, _ := newTestServer(t, Config{InstanceID: "dst"})
	sp := diagPosterior("src.job-000001", n)
	if !src.mgr.posteriors.put(sp) {
		t.Fatal("source store rejected the posterior")
	}

	resp, err := http.Get(srcTS.URL + "/v1/jobs/" + sp.jobID + "/posterior?cov=full")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d, err %v", resp.StatusCode, err)
	}
	// ~20 bytes of JSON text per number, 6 numbers per atom.
	if len(body) > 200*n || len(body) >= maxRequestBody {
		t.Fatalf("exported document is %d bytes for %d atoms", len(body), n)
	}

	var info encode.PosteriorInfo
	if code := doAuth(t, http.MethodPut, dstTS.URL+"/v1/posteriors/"+sp.jobID, "", body, &info); code != http.StatusOK {
		t.Fatalf("import: status %d", code)
	}
	if info.Atoms != n || info.Bytes != 48*n {
		t.Fatalf("import acknowledged %d atoms, %d bytes; want %d, %d", info.Atoms, info.Bytes, n, 48*n)
	}
	got, fail := dst.mgr.resolveWarmStart(sp.jobID, sp.structHash)
	if fail != nil {
		t.Fatalf("warm-start resolution on the destination: %+v", fail)
	}
	if got.post.Cov != nil || len(got.post.Positions) != n {
		t.Fatalf("resolved posterior: %d positions, covariance %v", len(got.post.Positions), got.post.Cov)
	}
	for i, v := range sp.post.CoordVariances {
		if got.post.CoordVariances[i] != v || got.post.Positions[i/3] != sp.post.Positions[i/3] {
			t.Fatalf("coordinate %d changed in transit", i)
		}
	}
}

// TestPosteriorPutIdempotent re-imports the same document: a retried
// transfer (duplicate PUT after a lost ack) must replace in place, not
// duplicate or fail.
func TestPosteriorPutIdempotent(t *testing.T) {
	srcSrv, srcTS, srcC := newTestServer(t, Config{MaxProcs: 2, InstanceID: "src"})
	_ = srcSrv
	ctx := context.Background()

	params := quickParams()
	params.KeepPosterior = true
	st := submit(t, srcC, helix(2), params)
	waitState(t, srcC, st.ID, StateDone)
	doc, err := srcC.Posterior(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(doc)

	dstSrv, dstTS, _ := newTestServer(t, Config{MaxProcs: 2, InstanceID: "dst"})
	for i := 0; i < 2; i++ {
		if code := doAuth(t, http.MethodPut, dstTS.URL+"/v1/posteriors/"+st.ID, "", body, nil); code != http.StatusOK {
			t.Fatalf("put #%d: status %d", i+1, code)
		}
	}
	stats := dstSrv.mgr.posteriors.stats()
	if stats.entries != 1 {
		t.Fatalf("after duplicate PUT: %d entries, want 1", stats.entries)
	}
	if stats.imported != 2 {
		t.Fatalf("after duplicate PUT: imported=%d, want 2", stats.imported)
	}
	_ = srcTS
}

func TestPosteriorPutValidation(t *testing.T) {
	_, ts, c := newTestServer(t, Config{MaxProcs: 2})
	ctx := context.Background()

	params := quickParams()
	params.KeepPosterior = true
	st := submit(t, c, helix(2), params)
	waitState(t, c, st.ID, StateDone)
	doc, err := c.Posterior(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}

	var env struct {
		Error encode.ErrorBody `json:"error"`
	}
	// Path id and document job disagree.
	body, _ := json.Marshal(doc)
	if code := doAuth(t, http.MethodPut, ts.URL+"/v1/posteriors/other-job", "", body, &env); code != http.StatusBadRequest {
		t.Fatalf("id mismatch: status %d, want 400", code)
	}
	// Missing structure hash.
	stripped := doc
	stripped.StructureHash = ""
	body, _ = json.Marshal(stripped)
	if code := doAuth(t, http.MethodPut, ts.URL+"/v1/posteriors/"+st.ID, "", body, &env); code != http.StatusBadRequest {
		t.Fatalf("missing structure hash: status %d, want 400", code)
	}
	// Undecodable payload.
	if code := doAuth(t, http.MethodPut, ts.URL+"/v1/posteriors/"+st.ID, "", []byte("{"), &env); code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", code)
	}
}

func TestPosteriorPutBudget(t *testing.T) {
	_, srcTS, srcC := newTestServer(t, Config{MaxProcs: 2})
	ctx := context.Background()
	params := quickParams()
	params.KeepPosterior = true
	st := submit(t, srcC, helix(2), params)
	waitState(t, srcC, st.ID, StateDone)
	doc, err := srcC.Posterior(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(doc)
	_ = srcTS

	// A 16-byte budget cannot admit any real posterior.
	_, tinyTS, _ := newTestServer(t, Config{MaxProcs: 2, PosteriorBytes: 16})
	var env struct {
		Error encode.ErrorBody `json:"error"`
	}
	code := doAuth(t, http.MethodPut, tinyTS.URL+"/v1/posteriors/"+st.ID, "", body, &env)
	if code != http.StatusInsufficientStorage {
		t.Fatalf("over-budget import: status %d, want 507", code)
	}
	if env.Error.Code != encode.CodePosteriorBudget {
		t.Fatalf("over-budget import: code %q, want %q", env.Error.Code, encode.CodePosteriorBudget)
	}
}

func TestPosteriorTransferAuth(t *testing.T) {
	const token = "s3cret"
	_, ts, c := newTestServer(t, Config{MaxProcs: 2, AdminToken: token})
	ctx := context.Background()
	params := quickParams()
	params.KeepPosterior = true
	st := submit(t, c, helix(2), params)
	waitState(t, c, st.ID, StateDone)
	doc, err := c.Posterior(ctx, st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(doc)

	var env struct {
		Error encode.ErrorBody `json:"error"`
	}
	// Mutations without (or with a wrong) token are refused...
	if code := doAuth(t, http.MethodPut, ts.URL+"/v1/posteriors/"+st.ID, "", body, &env); code != http.StatusUnauthorized {
		t.Fatalf("tokenless PUT: status %d, want 401", code)
	}
	if env.Error.Code != encode.CodeUnauthorized {
		t.Fatalf("tokenless PUT: code %q, want %q", env.Error.Code, encode.CodeUnauthorized)
	}
	if code := doAuth(t, http.MethodDelete, ts.URL+"/v1/posteriors/"+st.ID, "wrong", nil, &env); code != http.StatusUnauthorized {
		t.Fatalf("wrong-token DELETE: status %d, want 401", code)
	}
	// ...the read-only index stays open...
	if code := doAuth(t, http.MethodGet, ts.URL+"/v1/posteriors", "", nil, nil); code != http.StatusOK {
		t.Fatalf("tokenless index: status %d, want 200", code)
	}
	// ...and the right token is accepted.
	if code := doAuth(t, http.MethodPut, ts.URL+"/v1/posteriors/"+st.ID, token, body, nil); code != http.StatusOK {
		t.Fatalf("tokened PUT: status %d, want 200", code)
	}
}

// TestJobStatusShardField pins the documented v1 contract: every job
// status names the instance that ran it, matching the X-Phmsed-Instance
// response header identity.
func TestJobStatusShardField(t *testing.T) {
	_, _, c := newTestServer(t, Config{MaxProcs: 2, InstanceID: "shard-a"})
	st := submit(t, c, helix(2), quickParams())
	if st.Shard != "shard-a" {
		t.Fatalf("submit status shard = %q, want shard-a", st.Shard)
	}
	done := waitState(t, c, st.ID, StateDone)
	if done.Shard != "shard-a" {
		t.Fatalf("done status shard = %q, want shard-a", done.Shard)
	}
	// The list surface carries it too.
	jl, err := c.List(context.Background(), client.ListOptions{})
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(jl.Jobs) != 1 {
		t.Fatalf("list: %d jobs, want 1", len(jl.Jobs))
	}
	for _, j := range jl.Jobs {
		if j.Shard != "shard-a" {
			t.Fatalf("listed job %s shard = %q, want shard-a", j.ID, j.Shard)
		}
	}
}

// exportGen reads a posterior the way a transfer does and returns the
// document with the X-Posterior-Generation it came with.
func exportGen(t *testing.T, base, id string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/posterior?cov=full")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export of %s from %s: status %d, %v", id, base, resp.StatusCode, err)
	}
	gen := resp.Header.Get("X-Posterior-Generation")
	if gen == "" {
		t.Fatalf("export of %s from %s carries no X-Posterior-Generation", id, base)
	}
	return body, gen
}

// TestConditionalDeleteKeepsAReturnedCopy replays two movers that hold
// different rings passing one posterior between two daemons. Mover A
// exports it from s1 and imports it to s2. Mover B exports it from s2,
// imports it to s1 and deletes it from s2. A's ack delete on s1 names the
// generation its export saw, which s1 no longer holds, so s1 answers 409
// and keeps the copy B brought back. A delete without a generation stays
// unconditional.
func TestConditionalDeleteKeepsAReturnedCopy(t *testing.T) {
	const token = "gen-secret"
	_, ts1, c1 := newTestServer(t, Config{MaxProcs: 2, InstanceID: "s1", AdminToken: token})
	_, ts2, _ := newTestServer(t, Config{MaxProcs: 2, InstanceID: "s2", AdminToken: token})
	params := quickParams()
	params.KeepPosterior = true
	st := submit(t, c1, helix(2), params)
	waitState(t, c1, st.ID, StateDone)
	at := func(ts *httptest.Server) string { return ts.URL + "/v1/posteriors/" + st.ID }

	docA, genA := exportGen(t, ts1.URL, st.ID) // A: s1 → s2
	if code := doAuth(t, http.MethodPut, at(ts2), token, docA, nil); code != http.StatusOK {
		t.Fatalf("A's import to s2: status %d", code)
	}
	docB, genB := exportGen(t, ts2.URL, st.ID) // B: s2 → s1
	if code := doAuth(t, http.MethodPut, at(ts1), token, docB, nil); code != http.StatusOK {
		t.Fatalf("B's import to s1: status %d", code)
	}
	if code := doAuth(t, http.MethodDelete, at(ts2)+"?generation="+genB, token, nil, nil); code != http.StatusOK {
		t.Fatalf("B's delete on s2 with its own generation: status %d, want 200", code)
	}

	var env struct {
		Error encode.ErrorBody `json:"error"`
	}
	if code := doAuth(t, http.MethodDelete, at(ts1)+"?generation="+genA, token, nil, &env); code != http.StatusConflict || env.Error.Code != encode.CodeConflict {
		t.Fatalf("A's stale delete on s1: status %d code %q, want 409 %q", code, env.Error.Code, encode.CodeConflict)
	}
	var idx encode.PosteriorIndex
	doAuth(t, http.MethodGet, ts1.URL+"/v1/posteriors", "", nil, &idx)
	if len(idx.Posteriors) != 1 || idx.Posteriors[0].Job != st.ID {
		t.Fatalf("s1 index after the stale delete: %+v, want %s kept", idx.Posteriors, st.ID)
	}

	if code := doAuth(t, http.MethodDelete, at(ts1)+"?generation=x", token, nil, &env); code != http.StatusBadRequest {
		t.Fatalf("malformed generation: status %d, want 400", code)
	}
	if code := doAuth(t, http.MethodDelete, at(ts1), token, nil, nil); code != http.StatusOK {
		t.Fatalf("unconditional delete: status %d, want 200", code)
	}
	doAuth(t, http.MethodGet, ts1.URL+"/v1/posteriors", "", nil, &idx)
	if len(idx.Posteriors) != 0 {
		t.Fatalf("s1 index after the unconditional delete: %+v, want empty", idx.Posteriors)
	}
}
