package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"phmse/internal/core"
	"phmse/internal/encode"
	"phmse/internal/geom"
	"phmse/internal/mat"
)

// cappedParams completes in two constraint cycles — ends done (with a
// retainable posterior) without paying for convergence.
func cappedParams() encode.SolveParams {
	return encode.SolveParams{MaxCycles: 2, Perturb: 0.4, Seed: 17}
}

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.post.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestPosteriorDiskRoundTrip: a kept posterior must survive a daemon
// restart via the -posterior-dir snapshots and serve a warm start from
// the reloaded store.
func TestPosteriorDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxProcs: 2, QueueDepth: 16, PosteriorBytes: 64 << 20,
		InstanceID: "alpha", PosteriorDir: dir}
	srv1, _, c1 := newTestServer(t, cfg)
	p := helix(6)

	// A throwaway cold job first, so the kept posterior's id is not the
	// restarted daemon's first — restarts reuse low sequence numbers.
	submit(t, c1, p, cappedParams())
	params := cappedParams()
	params.KeepPosterior = true
	st := submit(t, c1, p, params)
	done := waitState(t, c1, st.ID, StateDone)
	if !done.PosteriorKept {
		t.Fatal("keep_posterior job did not retain its posterior")
	}
	if files := snapshotFiles(t, dir); len(files) != 1 {
		t.Fatalf("want 1 posterior snapshot, found %v", files)
	}
	if m := srv1.Snapshot(); m.Posteriors.Persisted != 1 {
		t.Fatalf("persisted=%d, want 1", m.Posteriors.Persisted)
	}

	// "Restart": a fresh server over the same snapshot directory.
	srv2, _, c2 := newTestServer(t, cfg)
	if m := srv2.Snapshot(); m.Posteriors.Loaded != 1 || m.Posteriors.Entries != 1 {
		t.Fatalf("after restart: loaded=%d entries=%d, want 1/1",
			m.Posteriors.Loaded, m.Posteriors.Entries)
	}
	st2, err := c2.WarmStart(context.Background(), withExtraDistances(p), cappedParams(), st.ID)
	if err != nil {
		t.Fatalf("warm start from reloaded posterior: %v", err)
	}
	if got := waitState(t, c2, st2.ID, StateDone); got.WarmStartFrom != st.ID {
		t.Fatalf("warm start from %q, want %q", got.WarmStartFrom, st.ID)
	}
}

// TestRestartDoesNotReuseSnapshotIDs: the id counter reseeds past every
// id the snapshot directory still references, so a restarted daemon can
// never re-mint the id of a reloaded posterior — the posterior store is
// consulted before the job table, and a collision would serve the old
// incarnation's posterior as the new job's (then clobber it on keep).
func TestRestartDoesNotReuseSnapshotIDs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxProcs: 2, QueueDepth: 16, PosteriorBytes: 64 << 20,
		InstanceID: "alpha", PosteriorDir: dir}
	_, _, c1 := newTestServer(t, cfg)
	params := cappedParams()
	params.KeepPosterior = true
	st := submit(t, c1, helix(6), params)
	waitState(t, c1, st.ID, StateDone)

	// Restart: the first post-restart job must get a fresh id, not the
	// retained snapshot's.
	_, _, c2 := newTestServer(t, cfg)
	st2 := submit(t, c2, helix(4), cappedParams())
	if st2.ID == st.ID {
		t.Fatalf("restarted daemon re-minted id %q of a retained posterior", st.ID)
	}
	if st.ID != "alpha.job-000001" || st2.ID != "alpha.job-000002" {
		t.Fatalf("ids %q then %q, want alpha.job-000001 then alpha.job-000002", st.ID, st2.ID)
	}
}

// testPosterior builds a small synthetic flat-form posterior for direct
// store tests.
func testPosterior(jobID string, n int) *storedPosterior {
	sp := diagPosterior(jobID, n)
	sp.post.Cov = mat.New(3*n, 3*n)
	return sp
}

// diagPosterior builds a synthetic posterior in the form a hierarchical
// job keeps: positions and the covariance diagonal.
func diagPosterior(jobID string, n int) *storedPosterior {
	post := &core.Posterior{
		Positions:      make([]geom.Vec3, n),
		CoordVariances: make([]float64, 3*n),
	}
	for i := range post.Positions {
		post.Positions[i] = geom.Vec3{float64(i), float64(2 * i), float64(3 * i)}
	}
	for i := range post.CoordVariances {
		post.CoordVariances[i] = 0.01 * float64(i+1)
	}
	return &storedPosterior{
		jobID:      jobID,
		problem:    "synthetic",
		topoHash:   "topo-" + jobID,
		structHash: "struct-synthetic",
		post:       post,
	}
}

// TestPosteriorEvictionRemovesSnapshot: LRU eviction must delete the
// evicted entry's snapshot, keeping disk in step with the byte budget.
func TestPosteriorEvictionRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	cost := testPosterior("x", 4).post.Bytes()

	// Budget fits one posterior but not two.
	ps := newPosteriorStore(cost+cost/2, dir)
	if !ps.put(testPosterior("alpha.job-000001", 4)) {
		t.Fatal("first put rejected")
	}
	if !ps.put(testPosterior("alpha.job-000002", 4)) {
		t.Fatal("second put rejected")
	}
	files := snapshotFiles(t, dir)
	if len(files) != 1 || !strings.Contains(files[0], "alpha.job-000002") {
		t.Fatalf("after eviction want only job-000002's snapshot, found %v", files)
	}
	if st := ps.stats(); st.evicted != 1 || st.persisted != 2 {
		t.Fatalf("evicted=%d persisted=%d, want 1/2", st.evicted, st.persisted)
	}

	// Reload honours the budget: with room for one, one comes back.
	ps2 := newPosteriorStore(cost+cost/2, dir)
	if st := ps2.stats(); st.loaded != 1 || st.entries != 1 {
		t.Fatalf("reload: loaded=%d entries=%d, want 1/1", st.loaded, st.entries)
	}
	if _, ok := ps2.get("alpha.job-000002"); !ok {
		t.Fatal("surviving posterior missing after reload")
	}
}

// TestEvictedIDPutBackKeepsItsSnapshot: evicted snapshots are removed
// after the store's lock is released, so an evicted id can be put back
// first (a re-import); its removal then finds the id present and leaves
// the new snapshot alone.
func TestEvictedIDPutBackKeepsItsSnapshot(t *testing.T) {
	dir := t.TempDir()
	ps := newPosteriorStore(1<<20, dir)
	back := testPosterior("alpha.job-000001", 4)
	if !ps.put(back) {
		t.Fatal("put rejected")
	}
	ps.removeEvicted([]string{back.jobID, "alpha.job-000009"})
	if files := snapshotFiles(t, dir); len(files) != 1 || !strings.Contains(files[0], back.jobID) {
		t.Fatalf("snapshots after a stale eviction of a present id: %v", files)
	}
}

// TestConcurrentPutsKeepDiskInStep: puts from several goroutines evict
// each other's entries while lookups run beside them; once they are done,
// the snapshots on disk are exactly the entries in memory.
func TestConcurrentPutsKeepDiskInStep(t *testing.T) {
	dir := t.TempDir()
	ps := newPosteriorStore(3*diagPosterior("x", 4).post.Bytes(), dir)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("g%d.job-%06d", g, i)
				if !ps.put(diagPosterior(id, 4)) {
					t.Errorf("put %s rejected", id)
				}
				ps.get(fmt.Sprintf("g%d.job-%06d", (g+1)%4, i))
			}
		}()
	}
	wg.Wait()
	var want []string
	for _, info := range ps.index("").Posteriors {
		want = append(want, ps.snapshotPath(info.Job))
	}
	if got := snapshotFiles(t, dir); !slices.Equal(got, want) {
		t.Fatalf("snapshots %v, entries %v", got, want)
	}
}

// TestStaleSnapshotTempSwept: a crash between writeSnapshot's write and
// its rename leaves <id>.post.json.tmp; opening the store removes it and
// loads nothing from it.
func TestStaleSnapshotTempSwept(t *testing.T) {
	dir := t.TempDir()
	ps := newPosteriorStore(1<<20, dir)
	if !ps.put(diagPosterior("alpha.job-000001", 4)) {
		t.Fatal("put rejected")
	}
	snap := ps.snapshotPath("alpha.job-000001")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// A whole, valid document under the temp name: only the name says the
	// rename never happened.
	stale := ps.snapshotPath("alpha.job-000002") + ".tmp"
	if err := os.WriteFile(stale, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ps2 := newPosteriorStore(1<<20, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the store opening: %v", err)
	}
	if st := ps2.stats(); st.loaded != 1 || st.entries != 1 {
		t.Fatalf("loaded=%d entries=%d, want only the renamed snapshot", st.loaded, st.entries)
	}
	if files := snapshotFiles(t, dir); len(files) != 1 || files[0] != snap {
		t.Fatalf("snapshot files after the sweep: %v", files)
	}
}

// TestPosteriorSnapshotIgnoresGarbage: unreadable snapshots must not
// poison startup.
func TestPosteriorSnapshotIgnoresGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.post.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ps := newPosteriorStore(1<<20, dir)
	if st := ps.stats(); st.loaded != 0 || st.entries != 0 {
		t.Fatalf("garbage snapshot admitted: loaded=%d entries=%d", st.loaded, st.entries)
	}
	if !ps.put(testPosterior("alpha.job-000001", 4)) {
		t.Fatal("store unusable after garbage snapshot")
	}
}

// TestInstanceIdentity: a configured instance id must show up in the
// response header, the health document, the metrics, and every job id.
func TestInstanceIdentity(t *testing.T) {
	srv, ts, c := newTestServer(t, Config{QueueDepth: 8, InstanceID: "west-1"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hs encode.HealthStatus
	err = json.NewDecoder(resp.Body).Decode(&hs)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Phmsed-Instance"); got != "west-1" {
		t.Fatalf("X-Phmsed-Instance = %q, want west-1", got)
	}
	if hs.InstanceID != "west-1" {
		t.Fatalf("healthz instance_id = %q, want west-1", hs.InstanceID)
	}
	if m := srv.Snapshot(); m.Instance != "west-1" {
		t.Fatalf("metrics instance = %q, want west-1", m.Instance)
	}

	st := submit(t, c, helix(4), cappedParams())
	if !strings.HasPrefix(st.ID, "west-1.job-") {
		t.Fatalf("job id %q lacks instance qualifier", st.ID)
	}
	if got := encode.JobInstance(st.ID); got != "west-1" {
		t.Fatalf("JobInstance(%q) = %q", st.ID, got)
	}
}

// TestUnqualifiedIDsWithoutInstance: the default configuration keeps the
// seed's bare job-NNNNNN ids and no identity header.
func TestUnqualifiedIDsWithoutInstance(t *testing.T) {
	_, ts, c := newTestServer(t, Config{QueueDepth: 8})
	st := submit(t, c, helix(4), cappedParams())
	if !strings.HasPrefix(st.ID, "job-") {
		t.Fatalf("job id %q should be unqualified", st.ID)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Phmsed-Instance"); got != "" {
		t.Fatalf("unexpected X-Phmsed-Instance %q without -instance", got)
	}
}
