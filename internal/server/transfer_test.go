package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

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

// TestPosteriorPutInflightGate pins the transfer import gate: with
// TransferInflight=1, a second concurrent PUT is shed with 429 queue_full
// and a Retry-After hint, and the slot frees once the first import ends.
func TestPosteriorPutInflightGate(t *testing.T) {
	_, _, srcC := newTestServer(t, Config{MaxProcs: 2})
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

	gated, gatedTS, _ := newTestServer(t, Config{MaxProcs: 2, TransferInflight: 1})

	// The first PUT drips its body through a pipe: the handler takes the
	// gate slot, then blocks decoding until the body arrives.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPut, gatedTS.URL+"/v1/posteriors/"+st.ID, pr)
	if err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gated.transferInflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first PUT never took the gate slot")
		}
		time.Sleep(time.Millisecond)
	}

	// A second PUT while the slot is held is shed with backpressure.
	req2, err := http.NewRequest(http.MethodPut, gatedTS.URL+"/v1/posteriors/"+st.ID, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error encode.ErrorBody `json:"error"`
	}
	json.NewDecoder(resp2.Body).Decode(&env) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("concurrent PUT: status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("concurrent PUT: no Retry-After header")
	}
	if env.Error.Code != encode.CodeQueueFull {
		t.Fatalf("concurrent PUT: code %q, want %q", env.Error.Code, encode.CodeQueueFull)
	}

	// Release the first import; it completes and frees the slot for the
	// next transfer.
	if _, err := pw.Write(body); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("dripped PUT: status %d, want 200", code)
	}
	if code := doAuth(t, http.MethodPut, gatedTS.URL+"/v1/posteriors/"+st.ID, "", body, nil); code != http.StatusOK {
		t.Fatalf("PUT after release: status %d, want 200", code)
	}
	if rej := gated.transferRejected.Load(); rej != 1 {
		t.Fatalf("transferRejected = %d, want 1", rej)
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
