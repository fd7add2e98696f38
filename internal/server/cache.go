package server

import (
	"container/list"
	"fmt"
	"sync"

	"phmse/internal/core"
)

// planCache is a bounded LRU cache of topology-keyed planning artifacts:
// the regrouped decomposition tree, and the prepared node trees — batches,
// sparse builders, gather plans — that finished jobs of the topology handed
// back (core.Estimator.Close), as many as ran at once. The paper's central
// observation is that the decomposition is invariant across re-solves of
// the same topology — it depends on which atoms are coupled, not on the
// measured values or the team that solves it — so a server handling
// repeated estimation cycles should pay for planning once per topology, not
// once per request. A warm job takes a prepared tree and rebinds it to its
// own constraints, each one checked, so no result depends on the key being
// right.
type planCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits   int64
	misses int64
}

type cacheEntry struct {
	key string
	art *core.PlanArtifacts
}

func newPlanCache(max int) *planCache {
	return &planCache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// planKey widens the topology hash with the construction parameters the
// artifacts depend on, so one topology solved under different batch
// dimensions or decompositions occupies distinct slots. One slot serves
// every team width.
func planKey(topoHash string, mode core.Mode, batch int, auto bool) string {
	return fmt.Sprintf("%s|m=%v|b=%d|a=%v", topoHash, mode, batch, auto)
}

// get returns the cached artifacts for the key, recording a hit or miss.
func (c *planCache) get(key string) (*core.PlanArtifacts, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).art, true
}

// put stores artifacts under the key, evicting the least recently used
// entry when the cache is full.
func (c *planCache) put(key string, art *core.PlanArtifacts) {
	if art == nil || c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).art = art
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, art: art})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// stats returns (hits, misses, live entries).
func (c *planCache) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
