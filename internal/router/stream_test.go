package router

// Streamed posterior-transfer tests: the export body must be piped
// straight into the import PUT, never buffered — a transfer costs
// O(copy-buffer) memory, not O(document).

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"phmse/internal/encode"
)

// streamDocBytes is the synthetic export size: large enough that a
// buffering regression dominates the allocation profile, small enough
// to move over loopback in well under a second.
const streamDocBytes = 48 << 20

// TestStreamedTransferMemory moves a 48 MiB posterior through
// transferPosterior and asserts the router allocated only a small
// fraction of the document size — buffering the body (the regression
// this guards against) would allocate at least the full 48 MiB.
func TestStreamedTransferMemory(t *testing.T) {
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte('a' + i%16)
	}
	var deleted atomic.Int64
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			deleted.Add(1)
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		for sent := 0; sent < streamDocBytes; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(src.Close)
	var received atomic.Int64
	dst := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, err := io.Copy(io.Discard, r.Body)
		received.Store(n)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(dst.Close)

	rt, err := New(Config{
		Shards:         []string{src.URL},
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	from := &shard{name: "src", base: src.URL}
	to := &shard{name: "dst", base: dst.URL}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := rt.transferPosterior(context.Background(), from, to, encode.PosteriorInfo{Job: "j1", Bytes: streamDocBytes}); err != nil {
		t.Fatalf("transfer: %v", err)
	}
	runtime.ReadMemStats(&after)

	if got := received.Load(); got != streamDocBytes {
		t.Fatalf("destination received %d bytes, want %d", got, streamDocBytes)
	}
	if got := deleted.Load(); got != 1 {
		t.Fatalf("source delete count = %d, want 1 (after the destination ack)", got)
	}
	// The whole process — router plus both httptest stubs — shares this
	// allocation budget, so half the document size is a generous bound
	// that still fails hard if any leg buffers the body.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > streamDocBytes/2 {
		t.Errorf("transfer allocated %d MiB for a %d MiB document; the body is being buffered",
			delta>>20, streamDocBytes>>20)
	}
}

// TestStreamedTransferOversize: an export that overruns the protocol
// limit mid-stream aborts terminally — no retry storm, no delete of the
// source copy.
func TestStreamedTransferOversize(t *testing.T) {
	chunk := make([]byte, 1<<20)
	var exports, deletes atomic.Int64
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			deletes.Add(1)
			w.WriteHeader(http.StatusOK)
			return
		}
		exports.Add(1)
		// No Content-Length: the overrun is only discoverable mid-stream.
		for sent := int64(0); sent <= maxRequestBody; sent += int64(len(chunk)) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(src.Close)
	dst := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(dst.Close)

	rt, err := New(Config{
		Shards:         []string{src.URL},
		ProbeInterval:  time.Hour,
		RepairInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	err = rt.transferPosterior(context.Background(),
		&shard{name: "src", base: src.URL}, &shard{name: "dst", base: dst.URL},
		encode.PosteriorInfo{Job: "big"})
	if err == nil {
		t.Fatal("oversize transfer reported success")
	}
	if got := exports.Load(); got != 1 {
		t.Errorf("oversize transfer was retried: %d export attempts, want 1", got)
	}
	if got := deletes.Load(); got != 0 {
		t.Errorf("source copy deleted after a failed transfer: %d deletes", got)
	}
}
