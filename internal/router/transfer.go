package router

// The posterior transfer protocol, router side: index a shard's holdings
// (GET /v1/posteriors), move one posterior (export → import → ack-gated
// delete), and locate the holder of a job's posterior. Every call presents
// the router's admin token and runs under client.RetryPolicy.Do with one
// rule (retryableTransfer); every protocol request is replay-safe: index
// and export are reads, the import replaces the same id in place, the
// delete is idempotent and removes only the copy its export saw.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"

	"phmse/internal/client"
	"phmse/internal/encode"
)

// errOversizeTransfer marks a transfer body over maxRequestBody: the
// document can never fit through the protocol, so retrying is pointless.
var errOversizeTransfer = errors.New("router: transfer body exceeds the protocol limit")

// retryableTransfer is the protocol's retry rule. Transport errors, 5xx
// responses and 429 backpressure retry (the backoff floored by any
// Retry-After the backend sent). Three rejections stay terminal on first
// sight: 507 posterior_budget (a full store does not drain on the retry
// timescale; the pass counts the posterior failed and moves on), any
// other 4xx (the request itself is wrong), and a body over the protocol's
// size limit (it can never fit, and a truncated read must never be passed
// off as the document).
func retryableTransfer(err error) bool {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return ae.HTTPStatus == http.StatusTooManyRequests ||
			(ae.HTTPStatus >= 500 && ae.HTTPStatus != http.StatusInsufficientStorage)
	}
	return !errors.Is(err, errOversizeTransfer)
}

// authTransfer stamps the router's admin token onto a protocol request.
func (rt *Router) authTransfer(req *http.Request) {
	if rt.cfg.AdminToken != "" {
		req.Header.Set("Authorization", "Bearer "+rt.cfg.AdminToken)
	}
}

// transferCall issues one bodiless protocol request (an index read, a
// delete) under the retry policy and decodes a 2xx JSON body into out
// (skipped when out is nil).
func (rt *Router) transferCall(ctx context.Context, method, u string, out any) error {
	return forwardRetry.Do(ctx, func(int) error {
		req, err := http.NewRequestWithContext(ctx, method, u, nil)
		if err != nil {
			return err
		}
		rt.authTransfer(req)
		resp, err := rt.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return client.DecodeError(resp)
		}
		if out != nil {
			if err := json.NewDecoder(&capReader{r: resp.Body, limit: maxRequestBody}).Decode(out); err != nil {
				return fmt.Errorf("%s %s: %w", method, u, err)
			}
		}
		// Drain what the decoder left so the connection is reused: index
		// queries are on the warm-start submit path.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil
	}, retryableTransfer)
}

// transferPosterior moves one retained posterior: export from the source,
// import into the destination, delete the source copy only after the
// destination's ack. Any failure before the ack returns an error with the
// source untouched; a failed delete is only logged — the posterior is
// safe at its new owner and a later pass prunes the stale copy. The
// delete names the generation the export saw, so a copy another mover
// brought back to the source meanwhile survives (409 conflict, logged the
// same way). A streamed body cannot be replayed, so the retry policy wraps
// the whole export+import pair (each attempt re-opens the export) inside
// migrateTimeout.
func (rt *Router) transferPosterior(ctx context.Context, src, dst *shard, info encode.PosteriorInfo) error {
	tctx, cancel := context.WithTimeout(ctx, migrateTimeout)
	defer cancel()
	esc := url.PathEscape(info.Job)
	var gen string
	err := forwardRetry.Do(tctx, func(int) (err error) {
		gen, err = rt.streamPosterior(tctx, src, dst, esc)
		return err
	}, retryableTransfer)
	if err != nil {
		return err
	}
	del := src.base + "/v1/posteriors/" + esc
	if gen != "" {
		del += "?generation=" + url.QueryEscape(gen)
	}
	if err := rt.transferCall(tctx, http.MethodDelete, del, nil); err != nil {
		log.Printf("phmse-router: placement: deleting %s from %s after ack: %v", info.Job, src.name, err)
	}
	return nil
}

// streamPosterior is one export→import attempt: it opens the source's
// posterior export and pipes the response body directly into the
// destination's import PUT — the router never buffers the document, so a
// transfer costs O(copy-buffer) memory whatever the posterior retains (a
// few KB for a hierarchical job, a multi-megabyte covariance for a flat
// one, back-pressured by the destination) — through a size fence that
// errors, rather than truncates, past the protocol limit. It returns the
// exported copy's X-Posterior-Generation ("" from a daemon that sends
// none).
func (rt *Router) streamPosterior(ctx context.Context, src, dst *shard, esc string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src.base+"/v1/jobs/"+esc+"/posterior?cov=full", nil)
	if err != nil {
		return "", fmt.Errorf("export: %w", err)
	}
	rt.authTransfer(req)
	resp, err := rt.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("export: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return "", fmt.Errorf("export: %w", client.DecodeError(resp))
	}
	if resp.ContentLength > maxRequestBody {
		return "", fmt.Errorf("export: %d-byte document: %w", resp.ContentLength, errOversizeTransfer)
	}
	gen := resp.Header.Get("X-Posterior-Generation")

	// Import leg: the export body is the PUT body. The cap reader fails
	// the stream past the limit, so the destination sees an aborted body,
	// never a silently clipped document.
	cr := &capReader{r: resp.Body, limit: maxRequestBody}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPut, dst.base+"/v1/posteriors/"+esc, cr)
	if err != nil {
		return "", fmt.Errorf("import: %w", err)
	}
	preq.Header.Set("Content-Type", "application/json")
	if resp.ContentLength >= 0 {
		preq.ContentLength = resp.ContentLength
	}
	rt.authTransfer(preq)
	presp, err := rt.hc.Do(preq)
	if err != nil {
		if cr.n > cr.limit {
			return "", fmt.Errorf("export of %s: %w", esc, errOversizeTransfer)
		}
		return "", fmt.Errorf("import: %w", err)
	}
	defer discard(presp)
	if presp.StatusCode < 200 || presp.StatusCode > 299 {
		return "", fmt.Errorf("import: %w", client.DecodeError(presp))
	}
	return gen, nil
}

// capReader passes through at most limit bytes and then fails the read —
// a stream that would exceed the transfer protocol's size limit must
// abort loudly, never truncate.
type capReader struct {
	r     io.Reader
	n     int64
	limit int64
}

func (c *capReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if c.n > c.limit {
		return 0, errOversizeTransfer
	}
	return n, err
}

// fetchPosteriorIndex reads one shard's retained-posterior index.
func (rt *Router) fetchPosteriorIndex(ctx context.Context, sh *shard, prefix string) (encode.PosteriorIndex, error) {
	u := sh.base + "/v1/posteriors"
	if prefix != "" {
		u += "?prefix=" + url.QueryEscape(prefix)
	}
	var idx encode.PosteriorIndex
	err := rt.transferCall(ctx, http.MethodGet, u, &idx)
	return idx, err
}

// holdsPosterior asks a shard, with an exact-id index query, whether it
// retains the posterior of jobID. An error means the shard could not be
// asked (down, or predates the index endpoint).
func (rt *Router) holdsPosterior(ctx context.Context, sh *shard, jobID string) (bool, error) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	idx, err := rt.fetchPosteriorIndex(pctx, sh, jobID)
	for _, info := range idx.Posteriors {
		if info.Job == jobID {
			return true, nil
		}
	}
	return false, err
}

// locatePosterior finds the askable shard retaining a posterior whose job
// id's instance qualifier no longer names its holder — the minting shard
// was removed, or its posteriors were placed elsewhere (forwardWarm calls
// it only after the named shard has disowned the posterior). Exact-id index
// queries fan out least-loaded first; the first holder wins (placement
// guarantees at most one current owner, stale duplicates serve the same
// document).
func (rt *Router) locatePosterior(ctx context.Context, jobID string) *shard {
	for _, sh := range rt.shardsByLoad() {
		if held, _ := rt.holdsPosterior(ctx, sh, jobID); held {
			return sh
		}
	}
	return nil
}
