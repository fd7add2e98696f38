package router

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"phmse/internal/encode"
)

// Cross-shard job listing: GET /v1/jobs fans out to every askable shard,
// merges the per-shard pages in submission-time order, and returns a
// composite cursor that records each shard's own pagination position — so
// the backends' cheap lexicographic "after" cursors keep working per
// shard while the merged listing pages cleanly across shards.

// maxListLimit mirrors the daemon's page cap.
const maxListLimit = 500

// cursorPrefix marks a router-issued composite cursor. Backend cursors
// (bare job ids) are meaningless at the router, which owns no jobs.
const cursorPrefix = "v1:"

// encodeCursor packs the per-shard after positions (keyed by shard name)
// into an opaque cursor.
func encodeCursor(c map[string]string) string {
	data, _ := json.Marshal(c) //nolint:errcheck // map[string]string cannot fail
	return cursorPrefix + base64.RawURLEncoding.EncodeToString(data)
}

func decodeCursor(s string) (map[string]string, error) {
	raw, ok := strings.CutPrefix(s, cursorPrefix)
	if !ok {
		return nil, fmt.Errorf("after is not a router cursor (pass the next_after of a previous routed page)")
	}
	data, err := base64.RawURLEncoding.DecodeString(raw)
	if err != nil {
		return nil, fmt.Errorf("malformed cursor: %v", err)
	}
	var c map[string]string
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("malformed cursor: %v", err)
	}
	return c, nil
}

// taggedJob is one listed job plus the shard that reported it.
type taggedJob struct {
	st encode.JobStatus
	sh *shard
}

// lessJob orders merged listings by submission time, tie-broken by id so
// the order is total and stable across pages.
func lessJob(a, b taggedJob) bool {
	ta, errA := time.Parse(time.RFC3339Nano, a.st.SubmittedAt)
	tb, errB := time.Parse(time.RFC3339Nano, b.st.SubmittedAt)
	if errA == nil && errB == nil && !ta.Equal(tb) {
		return ta.Before(tb)
	}
	return a.st.ID < b.st.ID
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := encode.JobState(q.Get("state"))
	if state != "" && !state.Valid() {
		writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
			fmt.Sprintf("unknown state %q", state))
		return
	}
	limit := 50
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, encode.CodeBadRequest,
				fmt.Sprintf("limit must be a positive integer, got %q", v))
			return
		}
		limit = n
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	cursor := map[string]string{}
	if after := q.Get("after"); after != "" {
		c, err := decodeCursor(after)
		if err != nil {
			writeError(w, http.StatusBadRequest, encode.CodeBadRequest, err.Error())
			return
		}
		cursor = c
	}

	live := rt.shardsIn(shardState.askable)
	if len(live) == 0 {
		rt.writeNoShard(w)
		return
	}
	rt.listFanouts.Add(1)

	// Fan out: each shard is asked for a full page past its own cursor, so
	// the merge can fill the routed page even if one shard supplies all of
	// it. Each ask is one forward attempt: a breaker-open or saturated
	// shard is not sent the listing and counts as an errored page.
	type shardPage struct {
		jobs []encode.JobStatus
		next string
		ok   bool
	}
	pages := make([]shardPage, len(live))
	var wg sync.WaitGroup
	for i, sh := range live {
		wg.Add(1)
		go func(page *shardPage, sh *shard) {
			defer wg.Done()
			v := url.Values{}
			if state != "" {
				v.Set("state", string(state))
			}
			v.Set("limit", strconv.Itoa(limit))
			if a := cursor[sh.name]; a != "" {
				v.Set("after", a)
			}
			rt.attempt(r, sh, "/v1/jobs?"+v.Encode(), nil, false, func(resp *http.Response) { //nolint:errcheck // page.ok carries the result
				var list encode.JobList
				if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&list) == nil {
					*page = shardPage{list.Jobs, list.NextAfter, true}
				}
			})
		}(&pages[i], sh)
	}
	wg.Wait()

	// Merge in submission-time order and take one routed page. A shard
	// that errored contributes nothing this page; its cursor position is
	// untouched, so its jobs surface once it recovers rather than being
	// silently skipped.
	var merged []taggedJob
	morePerShard := false
	answered := 0
	for i, sh := range live {
		if !pages[i].ok {
			continue
		}
		answered++
		for _, st := range pages[i].jobs {
			merged = append(merged, taggedJob{st, sh})
		}
		if pages[i].next != "" {
			morePerShard = true
		}
	}
	// A listing where no shard answered is indistinguishable from an empty
	// cluster to the caller — refuse it honestly instead.
	if answered == 0 {
		rt.writeNoShard(w)
		return
	}
	sort.Slice(merged, func(i, j int) bool { return lessJob(merged[i], merged[j]) })
	out := make([]encode.JobStatus, 0, limit)
	next := map[string]string{}
	for k, v := range cursor {
		next[k] = v
	}
	for _, tj := range merged {
		if len(out) == limit {
			break
		}
		out = append(out, tj.st)
		// Backend ids are zero-padded per instance, so the shard's own
		// lexicographic cursor advances past every id we delivered.
		next[tj.sh.name] = tj.st.ID
	}
	resp := encode.JobList{Jobs: out}
	// Page on when surplus candidates remain — and also whenever a live
	// shard failed to answer, even if this page came up short: terminating
	// the listing there would silently drop the errored shard's jobs, when
	// re-paging with the same composite cursor picks them up once it
	// recovers.
	if (len(out) == limit && (len(merged) > limit || morePerShard)) || answered < len(live) {
		resp.NextAfter = encodeCursor(next)
	}
	writeJSON(w, http.StatusOK, resp)
}
