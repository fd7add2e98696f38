package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"runtime"
	"testing"
)

// A finished job's record keeps what its result documents read —
// positions, variances, counts, diagnostics — and hands the covariance back
// to the pool once the posterior, if kept, has been taken from it: the
// documents are byte for byte what they were when the record held the whole
// solution (SHA-256 recorded on amd64 before the change), and the record can
// no longer read a covariance. The flat /result alone was recorded again when
// the flat organization became the tree of one leaf: its rms_change is the
// tree's per-atom RMS, one ulp from the one the flat loop computed, and
// nothing else in it moved. All but the three PDB documents were recorded
// again when the m-m tiles fused their multiply-adds: the three solutions
// moved by at most 3.6e-12 posterior σ and 7.4e-12 in relative variance
// (stats.Compare), too little for the PDB's three decimals.
func TestFinishedJobsRetainNoCovariance(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("document digests were recorded on amd64")
	}
	srv, ts, c := newTestServer(t, Config{MaxProcs: 2})
	ctx := context.Background()
	p := helix(1)
	keep := quickParams()
	keep.KeepPosterior = true
	done := func(id string) {
		t.Helper()
		if st := waitState(t, c, id, StateDone, StateFailed, StateCancelled); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	cold := submit(t, c, p, keep)
	done(cold.ID)
	warm, err := c.WarmStart(ctx, p, keep, cold.ID)
	if err != nil {
		t.Fatal(err)
	}
	done(warm.ID)
	flat := keep
	flat.Mode, flat.MaxCycles = "flat", 12
	fl := submit(t, c, p, flat)
	done(fl.ID)

	want := map[string]string{
		"cold /result":             "bc92eb1c4764efc8",
		"cold /result?format=pdb":  "79a0a677556b654a",
		"cold /posterior":          "bbc2daa5d698e7b8",
		"cold /posterior?cov=full": "bbc2daa5d698e7b8",
		"warm /result":             "fc43f15b5f1f15de",
		"warm /result?format=pdb":  "caa3233746ceeab9",
		"warm /posterior":          "294509d8f001a084",
		"warm /posterior?cov=full": "294509d8f001a084",
		"flat /result":             "430f9b7eaa0252d1",
		"flat /result?format=pdb":  "0834636e812585c2",
		"flat /posterior":          "38fabfa9c73dcca9",
		"flat /posterior?cov=full": "8c7eed057bfc3c53",
	}
	for _, j := range []struct{ name, id string }{{"cold", cold.ID}, {"warm", warm.ID}, {"flat", fl.ID}} {
		for _, doc := range []string{"/result", "/result?format=pdb", "/posterior", "/posterior?cov=full"} {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + j.id + doc)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: %d %v", j.name, doc, resp.StatusCode, err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:8]); got != want[j.name+" "+doc] {
				t.Errorf("%s %s: digest %s, want %s", j.name, doc, got, want[j.name+" "+doc])
			}
		}
		rec, _ := srv.mgr.get(j.id)
		sol, state := rec.result()
		if state != StateDone || sol == nil {
			t.Fatalf("%s: state %s", j.name, state)
		}
		if _, err := sol.Ellipsoid(0); err == nil {
			t.Errorf("%s: the finished record still holds its covariance", j.name)
		}
	}
}
