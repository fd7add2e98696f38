package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"phmse/internal/client"
	"phmse/internal/encode"
)

// fakeShard is a scripted phmsed: healthy, answering POST /v1/solve with a
// canned response, listing a fixed posterior index, and parking status
// requests that carry ?wait= until released. It counts every request that
// is not a health probe, so a test can assert exactly what the router sent
// where.
type fakeShard struct {
	instance string
	ts       *httptest.Server
	// solveStatus/solveCode script POST /v1/solve: 202 answers a queued
	// job status, anything else the error envelope with solveCode.
	solveStatus int
	solveCode   string
	holds       []string      // job ids GET /v1/posteriors reports
	release     chan struct{} // closed (once) to answer parked status requests
	releaseOnce sync.Once

	mu        sync.Mutex
	hits      map[string]int // "METHOD path" → requests
	lastSolve []byte         // body of the latest POST /v1/solve
}

func newFakeShard(t *testing.T, instance string) *fakeShard {
	t.Helper()
	fs := &fakeShard{instance: instance, solveStatus: http.StatusAccepted,
		release: make(chan struct{}), hits: map[string]int{}}
	mux := http.NewServeMux()
	health := func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(encode.HealthStatus{Status: "ok", InstanceID: instance}) //nolint:errcheck
	}
	mux.HandleFunc("GET /healthz", health)
	mux.HandleFunc("GET /readyz", health)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fs.mu.Lock()
		fs.hits[r.Method+" "+r.URL.Path]++
		if r.Method == http.MethodPost && r.URL.Path == "/v1/solve" {
			fs.lastSolve = body
		}
		fs.mu.Unlock()
		w.Header().Set("X-Phmsed-Instance", instance)
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/solve":
			if fs.solveStatus != http.StatusAccepted {
				w.WriteHeader(fs.solveStatus)
				fmt.Fprintf(w, `{"error": {"code": %q, "message": "scripted"}}`, fs.solveCode)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id": "%s.job-000099", "state": "queued", "shard": %q}`, instance, instance)
		case r.URL.Path == "/v1/posteriors":
			var idx encode.PosteriorIndex
			for _, id := range fs.holds {
				idx.Posteriors = append(idx.Posteriors, encode.PosteriorInfo{Job: id})
			}
			json.NewEncoder(w).Encode(idx) //nolint:errcheck
		default: // a job route
			if r.URL.Query().Has("wait") {
				select {
				case <-fs.release:
				case <-r.Context().Done():
				}
			}
			fmt.Fprint(w, `{"id": "job", "state": "done"}`)
		}
	})
	fs.ts = httptest.NewServer(mux)
	t.Cleanup(fs.ts.Close)
	t.Cleanup(fs.releaseWaits)
	return fs
}

func (fs *fakeShard) releaseWaits() { fs.releaseOnce.Do(func() { close(fs.release) }) }

func (fs *fakeShard) solveBody() []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.lastSolve
}

func (fs *fakeShard) seen() map[string]int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[string]int, len(fs.hits))
	for k, v := range fs.hits {
		out[k] = v
	}
	return out
}

// fakeCluster fronts the fake shards with a router that has learned their
// instance ids, and returns a client bound to it.
func fakeCluster(t *testing.T, mut func(*Config), shards ...*fakeShard) (*Router, *client.Client) {
	t.Helper()
	cfg := Config{ProbeInterval: time.Hour, RepairInterval: -1}
	for _, fs := range shards {
		cfg.Shards = append(cfg.Shards, fs.ts.URL)
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	rt.CheckNow(context.Background())
	return rt, client.New(rts.URL)
}

// A warm start costs the cluster exactly one request: the submission,
// forwarded to the shard its reference names. No index is consulted first.
func TestWarmStartIsOneRequestToOneShard(t *testing.T) {
	s1, s2 := newFakeShard(t, "s1"), newFakeShard(t, "s2")
	s2.holds = []string{"s2.job-000001"}
	rt, c := fakeCluster(t, nil, s1, s2)

	st, err := c.WarmStart(context.Background(), helix(1), encode.SolveParams{}, "s2.job-000001")
	if err != nil || st.Shard != "s2" {
		t.Fatalf("warm start: %v, %+v; want a job on s2", err, st)
	}
	if got, want := s2.seen(), map[string]int{"POST /v1/solve": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("holder saw %v, want %v", got, want)
	}
	if got := s1.seen(); len(got) != 0 {
		t.Errorf("bystander saw %v, want nothing", got)
	}
	if got, want := rt.Snapshot().WarmForwards, (MetricsWarmForwards{Direct: 1}); got != want {
		t.Errorf("warm_forwards %+v, want %+v", got, want)
	}
}

// postSolve submits a raw body to the router's handler in-process.
func postSolve(rt *Router, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	return w
}

// A warm body its named shard answers is relayed there byte for byte, and
// the ring key is never rendered: serving it costs no allocation per tree
// group beyond the routing scan's own, where rendering the key would
// build one molecule.Group for each.
func TestWarmHitRelaysBodyWithoutKeying(t *testing.T) {
	s1, s2 := newFakeShard(t, "s1"), newFakeShard(t, "s2")
	rt, _ := fakeCluster(t, nil, s1, s2)
	const groups = 4000
	body := []byte(` {"warm_start": {"job": "s2.job-000001"}, "x": [1, "y"],
	  "problem": {"constraints": [], "atoms": [{"pos": [0, 0, 0]}],
	  "tree": {"children": [` + strings.Repeat(`{"atoms": [0]},`, groups-1) + `{"atoms": [0]}]}}} `)

	if w := postSolve(rt, body); w.Code != http.StatusAccepted {
		t.Fatalf("warm submission: %d %s", w.Code, w.Body)
	}
	if got := s2.solveBody(); !bytes.Equal(got, body) {
		t.Errorf("named shard received %d bytes, not the %d submitted", len(got), len(body))
	}
	if got := s1.seen(); len(got) != 0 {
		t.Errorf("bystander saw %v, want nothing", got)
	}

	scan := testing.AllocsPerRun(5, func() {
		if _, err := encode.ReadRoute(body); err != nil {
			t.Fatal(err)
		}
	})
	serve := testing.AllocsPerRun(5, func() { postSolve(rt, body) })
	if extra := serve - scan; extra > groups/2 {
		t.Errorf("serving the warm hit allocates %.0f beyond its routing scan's %.0f: the key was rendered", extra, scan)
	}
}

// A warm reference no shard answers for falls back to the ring, keyed by
// the problem's topology hash exactly as a cold submission is.
func TestWarmMissRoutesByTopologyKey(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, "s1"), newFakeShard(t, "s2"), newFakeShard(t, "s3")}
	rt, c := fakeCluster(t, nil, shards...)
	owner := map[string]string{}
	for _, fs := range shards {
		owner[fs.ts.URL] = fs.instance
	}
	for bp := 1; bp <= 6; bp++ {
		p := helix(bp)
		want := owner[rt.replicasFor(encode.TopologyHash(p))[0].base]
		st, err := c.WarmStart(context.Background(), p, encode.SolveParams{}, "s9.job-000001")
		if err != nil || st.Shard != want {
			t.Fatalf("helix(%d) warm miss: %v, %+v; want the ring's first replica %s", bp, err, st, want)
		}
	}
	if got, want := rt.Snapshot().WarmForwards, (MetricsWarmForwards{Unresolved: 6}); got != want {
		t.Errorf("warm_forwards %+v, want %+v", got, want)
	}
}

// The router refuses what it cannot route — not one JSON document, no
// atoms, a warm_start without a job id, a routed field of the wrong type
// — and relays everything else to the shard, the validator.
func TestRouterRefusals(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	rt, _ := fakeCluster(t, nil, s1)
	refused := []string{
		``, `{`, `not json`, `[]`, `null`, `{}`, `{"params":{}}`, `{"problem":[]}`,
		`{"problem":null}`, `{"problem":{}}`, `{"problem":{"atoms":[]}}`, `{"problem":{"atoms":null}}`,
		`{"problem":{"atoms":[{}]},"problem":null}`,
		`{"problem":{"atoms":[{}]}} {}`, `{"problem":{"atoms":[{}]}}x`,
		`{"problem":{"atoms":[{}]},"warm_start":{}}`, `{"problem":{"atoms":[{}]},"warm_start":{"job":""}}`,
		`{"problem":{"atoms":[{}]},"warm_start":"s1.job-000001"}`, `{"problem":{"atoms":[{}]},"warm_start":{"job":7}}`,
		`{"problem":{"atoms":[1]}}`, `{"problem":{"atoms":{}}}`,
		`{"problem":{"atoms":[{}],"constraints":{}}}`,
		`{"problem":{"atoms":[{}],"constraints":[{"type":"distance","i":1.5}]}}`,
		`{"problem":{"atoms":[{}],"constraints":[{"type":"distance","I":"0"}]}}`,
		`{"problem":{"atoms":[{}],"constraints":[{"type":7}]}}`,
		`{"problem":{"atoms":[{}],"tree":[]}}`, `{"problem":{"atoms":[{}],"tree":{"atoms":[1e0]}}}`,
	}
	relayed := []string{
		`{"problem":{"atoms":[{}]}}`,
		`{"problem":{"name":7,"atoms":[{"pos":"x"}]},"params":"x"}`,
		`{"problem":{"atoms":[{}],"constraints":[{"type":"warp","i":0,"j":99,"sigma":-1,"target":"x","point":{}}]},"params":{"mode":"sideways"}}`,
		`{"PROBLEM":{"ATOMS":[null,{}]},"Warm_Start":null,"x":[1,{"y":null}]}`,
		`{"problem":{"atoms":[]},"problem":{"atoms":[{}]}}`,
	}
	for _, body := range refused {
		if w := postSolve(rt, []byte(body)); w.Code != http.StatusBadRequest {
			t.Errorf("%q: %d, want 400", body, w.Code)
		}
	}
	if got := s1.seen(); len(got) != 0 {
		t.Errorf("refused bodies reached the shard: %v", got)
	}
	for _, body := range relayed {
		if w := postSolve(rt, []byte(body)); w.Code != http.StatusAccepted {
			t.Errorf("%q: %d %s, want the shard's 202", body, w.Code, w.Body)
		}
	}
}

// Only "I do not hold that posterior" sends the router looking: every
// other rejection is the answer, relayed as the shard gave it.
func TestWarmStartRejectionsRelayWithoutReplay(t *testing.T) {
	s1, s2 := newFakeShard(t, "s1"), newFakeShard(t, "s2")
	s1.solveStatus, s1.solveCode = http.StatusConflict, encode.CodeTopologyMismatch
	rt, c := fakeCluster(t, nil, s1, s2)
	ctx := context.Background()

	_, err := c.WarmStart(ctx, helix(1), encode.SolveParams{}, "s1.job-000001")
	if !client.IsTopologyMismatch(err) {
		t.Fatalf("warm start error = %v, want the shard's topology_mismatch", err)
	}
	if got := s2.seen(); len(got) != 0 {
		t.Errorf("a topology mismatch was taken elsewhere: the other shard saw %v", got)
	}

	// A miss nobody can resolve relays the first shard's own rejection: the
	// other shard's index is asked, but it is not sent the submission.
	s1.solveStatus, s1.solveCode = http.StatusNotFound, encode.CodeNotFound
	_, err = c.WarmStart(ctx, helix(1), encode.SolveParams{}, "s1.job-000001")
	if !client.IsNotFound(err) {
		t.Fatalf("unresolvable warm start error = %v, want the shard's not_found", err)
	}
	if got := s2.seen(); got["POST /v1/solve"] != 0 || got["GET /v1/posteriors"] != 1 {
		t.Errorf("unresolvable reference: the other shard saw %v, want one index query and no submission", got)
	}
	if got, want := rt.Snapshot().WarmForwards, (MetricsWarmForwards{Direct: 2, Unresolved: 1}); got != want {
		t.Errorf("warm_forwards %+v, want %+v", got, want)
	}
}

// A posterior a placement pass moved is found on the miss and the
// submission replayed to its holder (TestE2EGrowCluster solves one for
// real; this pins the request count).
func TestWarmStartRelocatesOnMiss(t *testing.T) {
	s1, s2 := newFakeShard(t, "s1"), newFakeShard(t, "s2")
	s1.solveStatus, s1.solveCode = http.StatusConflict, encode.CodeNoResult
	s2.holds = []string{"s1.job-000001"}
	rt, c := fakeCluster(t, nil, s1, s2)

	st, err := c.WarmStart(context.Background(), helix(1), encode.SolveParams{}, "s1.job-000001")
	if err != nil || st.Shard != "s2" {
		t.Fatalf("warm start of a moved posterior: %v, %+v; want a job on s2", err, st)
	}
	if got := s1.seen(); got["POST /v1/solve"] != 1 {
		t.Errorf("minting shard saw %v, want exactly one submission", got)
	}
	if got := s2.seen(); got["POST /v1/solve"] != 1 {
		t.Errorf("holder saw %v, want exactly one submission", got)
	}
	if got, want := rt.Snapshot().WarmForwards, (MetricsWarmForwards{Direct: 1, Relocated: 1}); got != want {
		t.Errorf("warm_forwards %+v, want %+v", got, want)
	}
}

// A parked status wait is a held connection, not work queued at the
// shard: it takes no -shard-inflight slot, so it cannot 429 a submission.
func TestParkedWaitHoldsNoInflightSlot(t *testing.T) {
	s1 := newFakeShard(t, "s1")
	rt, c := fakeCluster(t, func(cfg *Config) { cfg.ShardInflight = 1 }, s1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	waited := make(chan error, 1)
	go func() {
		_, err := c.Wait(ctx, "s1.job-000001", 0)
		waited <- err
	}()
	for s1.seen()["GET /v1/jobs/s1.job-000001"] == 0 {
		if ctx.Err() != nil {
			t.Fatal("the wait never reached the shard")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Submit(ctx, helix(1), encode.SolveParams{}); err != nil {
		t.Fatalf("submit beside a parked wait at -shard-inflight 1: %v", err)
	}
	if m := rt.Snapshot(); m.Saturated != 0 || m.Shards[0].Inflight != 0 {
		t.Fatalf("saturated=%d inflight=%d with only a wait parked, want 0 and 0", m.Saturated, m.Shards[0].Inflight)
	}
	s1.releaseWaits()
	if err := <-waited; err != nil {
		t.Fatalf("released wait: %v", err)
	}
}
