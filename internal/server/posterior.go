package server

import (
	"container/list"
	"encoding/json"
	"fmt"
	"log"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"phmse/internal/core"
	"phmse/internal/encode"
)

// storedPosterior is one retained job posterior plus the identity needed
// to validate warm-start references against it.
type storedPosterior struct {
	jobID   string
	problem string
	// topoHash identifies the full problem topology the posterior was
	// solved under; structHash identifies just the molecule (atoms +
	// grouping) and is the warm-start compatibility key — re-solves may
	// change the constraint set freely but never the molecule.
	topoHash   string
	structHash string
	post       *core.Posterior
	bytes      int64
	// gen numbers the admission that stored this entry (insertLocked). A
	// transfer deletes its source copy only while it is still the
	// generation the export saw.
	gen uint64
}

// doc renders the retained posterior in the PosteriorDoc wire form: the
// one document the disk snapshot, GET /v1/jobs/{id}/posterior, the
// router's transfer stream and msesolve -save-posterior all carry. full
// includes a flat solve's covariance matrix; a hierarchical posterior has none.
func (sp *storedPosterior) doc(full bool) encode.PosteriorDoc {
	cov := sp.post.Cov
	if !full {
		cov = nil
	}
	doc := encode.NewPosteriorDoc(sp.post.Positions, sp.post.CoordVariances, cov)
	doc.Job = sp.jobID
	doc.Problem = sp.problem
	doc.TopologyHash = sp.topoHash
	doc.StructureHash = sp.structHash
	return doc
}

// storedFromDoc validates a posterior document — a disk snapshot or a
// transfer import — into store form. Without a structure hash it could
// never validate a warm-start reference, so it would be dead weight.
func storedFromDoc(doc *encode.PosteriorDoc) (*storedPosterior, error) {
	if doc.Job == "" || doc.StructureHash == "" {
		return nil, fmt.Errorf("posterior document lacks a job id or structure hash")
	}
	pos, coordVar, cov, err := doc.Decode()
	if err != nil {
		return nil, err
	}
	sp := &storedPosterior{
		jobID:      doc.Job,
		problem:    doc.Problem,
		topoHash:   doc.TopologyHash,
		structHash: doc.StructureHash,
		post:       &core.Posterior{Positions: pos, CoordVariances: coordVar, Cov: cov},
	}
	sp.bytes = sp.post.Bytes()
	return sp, nil
}

// info summarizes the entry for the index and the import acknowledgement.
func (sp *storedPosterior) info() encode.PosteriorInfo {
	return encode.PosteriorInfo{
		Job:           sp.jobID,
		Problem:       sp.problem,
		TopologyHash:  sp.topoHash,
		StructureHash: sp.structHash,
		Atoms:         len(sp.post.Positions),
		Bytes:         sp.bytes,
	}
}

// posteriorStore is the bounded, memory-accounted LRU store of job
// posteriors. Entries are keyed by job id. Unlike the plan cache, whose
// entries are small and counted, a posterior's footprint is 48n bytes for
// an n-atom hierarchical job and 8·(3n)² more for the full covariance a
// flat job keeps, so the store accounts bytes, not entries, and evicts
// least-recently-used posteriors until the budget is respected.
//
// With a snapshot directory the store is also disk-backed: every admitted
// posterior is written as an encode.PosteriorDoc JSON snapshot, evictions
// remove their snapshots, and a fresh store reloads whatever a previous
// process left behind (within the byte budget) — so retained posteriors
// survive daemon restarts.
type posteriorStore struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	dir      string     // "" disables persistence
	order    *list.List // front = most recently used; values are *storedPosterior
	entries  map[string]*list.Element

	// gen is the last admission's generation. It starts at the wall
	// clock, so a generation an export saw before a restart is not handed
	// to a different entry after it.
	gen uint64

	hits, misses, stored, rejected, evicted int64
	persisted, loaded                       int64
	imported, removed                       int64
}

func newPosteriorStore(maxBytes int64, dir string) *posteriorStore {
	ps := &posteriorStore{
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		gen:      uint64(time.Now().UnixNano()),
	}
	if dir != "" && maxBytes > 0 {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Printf("phmsed: posterior dir %s: %v (persistence disabled)", dir, err)
		} else {
			ps.dir = dir
			ps.loadFromDisk()
		}
	}
	return ps
}

// put admits a posterior, evicting least-recently-used entries as needed,
// and snapshots it to disk when the store is disk-backed. It reports
// whether the posterior was retained: one larger than the whole budget (or
// a disabled store) is rejected outright.
//
// Disk I/O — the snapshot write and the evicted entries' snapshot
// removals — happens outside ps.mu: holding the lock across it would block
// every posterior lookup (warm-start resolution, GET /posterior) for the
// duration. A concurrent put can evict the entry while its snapshot is
// being written; the membership re-check below removes the orphaned file so
// a reload never resurrects an evicted posterior.
func (ps *posteriorStore) put(sp *storedPosterior) bool {
	sp.bytes = sp.post.Bytes()
	ps.mu.Lock()
	ok, evicted := ps.insertLocked(sp)
	ps.mu.Unlock()
	ps.removeEvicted(evicted)
	if !ok {
		return false
	}
	if ps.dir == "" {
		return true
	}
	if err := ps.writeSnapshot(sp); err != nil {
		log.Printf("phmsed: persisting posterior of %s: %v", sp.jobID, err)
		return true
	}
	ps.mu.Lock()
	_, present := ps.entries[sp.jobID]
	if present {
		ps.persisted++
	}
	ps.mu.Unlock()
	if !present {
		ps.removeSnapshot(sp.jobID)
	}
	return true
}

// insertLocked runs the in-memory LRU admission: reject oversized entries,
// replace a same-id entry, evict least-recently-used posteriors until the
// budget is respected, and number the admission. It returns the evicted
// ids, whose snapshots the caller removes after unlocking (removeEvicted).
func (ps *posteriorStore) insertLocked(sp *storedPosterior) (bool, []string) {
	if ps.maxBytes <= 0 || sp.bytes > ps.maxBytes {
		ps.rejected++
		return false, nil
	}
	if el, ok := ps.entries[sp.jobID]; ok {
		ps.bytes -= el.Value.(*storedPosterior).bytes
		ps.order.Remove(el)
		delete(ps.entries, sp.jobID)
	}
	var evicted []string
	for ps.bytes+sp.bytes > ps.maxBytes {
		oldest := ps.order.Back()
		old := oldest.Value.(*storedPosterior)
		ps.bytes -= old.bytes
		ps.order.Remove(oldest)
		delete(ps.entries, old.jobID)
		ps.evicted++
		evicted = append(evicted, old.jobID)
	}
	ps.gen++
	sp.gen = ps.gen
	ps.entries[sp.jobID] = ps.order.PushFront(sp)
	ps.bytes += sp.bytes
	ps.stored++
	return true, evicted
}

// removeEvicted removes the snapshots of evicted entries, without ps.mu
// held. An id put back since its eviction (a re-import) owns its snapshot
// again, so each is re-checked under the lock first.
func (ps *posteriorStore) removeEvicted(ids []string) {
	for _, id := range ids {
		ps.mu.Lock()
		_, back := ps.entries[id]
		ps.mu.Unlock()
		if !back {
			ps.removeSnapshot(id)
		}
	}
}

// maxJobSeq returns the highest numeric job sequence ("...job-NNNNNN")
// among the retained posteriors, 0 when none parse. The manager seeds its
// id counter past it on startup so a restarted daemon never re-mints an id
// that a reloaded snapshot still references.
func (ps *posteriorStore) maxJobSeq() int64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var max int64
	for id := range ps.entries {
		i := strings.LastIndex(id, "job-")
		if i < 0 {
			continue
		}
		if n, err := strconv.ParseInt(id[i+len("job-"):], 10, 64); err == nil && n > max {
			max = n
		}
	}
	return max
}

// putImported admits a posterior received over the transfer API
// (PUT /v1/posteriors/{id}) — put semantics plus the import counter.
// Re-importing an id the store already holds replaces the entry in place
// (insertLocked's same-id path), which is what makes duplicate transfer
// PUTs idempotent.
func (ps *posteriorStore) putImported(sp *storedPosterior) bool {
	if !ps.put(sp) {
		return false
	}
	ps.mu.Lock()
	ps.imported++
	ps.mu.Unlock()
	return true
}

// remove deletes a posterior and its disk snapshot. This is the migration
// ack path: the router calls DELETE /v1/posteriors/{id} on the source only
// after the destination acknowledged the import, so a failed transfer
// never loses the snapshot. gen, when non-zero, makes the delete
// conditional: an entry admitted since the export that saw gen (another
// mover brought it back) is kept. It reports whether the id was present
// and whether the entry was removed.
func (ps *posteriorStore) remove(jobID string, gen uint64) (present, removed bool) {
	ps.mu.Lock()
	el, present := ps.entries[jobID]
	if present {
		sp := el.Value.(*storedPosterior)
		if removed = gen == 0 || sp.gen == gen; removed {
			ps.bytes -= sp.bytes
			ps.order.Remove(el)
			delete(ps.entries, jobID)
			ps.removed++
		}
	}
	ps.mu.Unlock()
	if removed {
		ps.removeSnapshot(jobID)
	}
	return present, removed
}

// index lists the retained posteriors whose job id starts with prefix
// ("" lists everything), without touching recency — a migration scan must
// not perturb the LRU order real traffic established. The listing is
// sorted by job id so pages are stable across calls.
func (ps *posteriorStore) index(prefix string) encode.PosteriorIndex {
	ps.mu.Lock()
	out := encode.PosteriorIndex{
		Posteriors:    []encode.PosteriorInfo{},
		TotalBytes:    ps.bytes,
		CapacityBytes: ps.maxBytes,
	}
	for el := ps.order.Front(); el != nil; el = el.Next() {
		sp := el.Value.(*storedPosterior)
		if prefix != "" && !strings.HasPrefix(sp.jobID, prefix) {
			continue
		}
		out.Posteriors = append(out.Posteriors, sp.info())
	}
	ps.mu.Unlock()
	sort.Slice(out.Posteriors, func(i, j int) bool {
		return out.Posteriors[i].Job < out.Posteriors[j].Job
	})
	return out
}

// get returns the retained posterior of a job, bumping its recency.
func (ps *posteriorStore) get(jobID string) (*storedPosterior, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	el, ok := ps.entries[jobID]
	if !ok {
		ps.misses++
		return nil, false
	}
	ps.hits++
	ps.order.MoveToFront(el)
	return el.Value.(*storedPosterior), true
}

const (
	snapshotSuffix = ".post.json"
	tmpSuffix      = ".tmp" // writeSnapshot's not-yet-renamed file
)

// snapshotPath maps a job id to its snapshot file. Server-minted ids are
// already filename-safe ([instance.]job-NNNNNN); escaping defends against
// ids from foreign snapshots dropped into the directory.
func (ps *posteriorStore) snapshotPath(jobID string) string {
	return filepath.Join(ps.dir, url.PathEscape(jobID)+snapshotSuffix)
}

// writeSnapshot persists one posterior in the PosteriorDoc wire form,
// atomically via a rename.
func (ps *posteriorStore) writeSnapshot(sp *storedPosterior) error {
	data, err := json.Marshal(sp.doc(true))
	if err != nil {
		return err
	}
	path := ps.snapshotPath(sp.jobID)
	tmp := path + tmpSuffix
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (ps *posteriorStore) removeSnapshot(jobID string) {
	if ps.dir == "" {
		return
	}
	if err := os.Remove(ps.snapshotPath(jobID)); err != nil && !os.IsNotExist(err) {
		log.Printf("phmsed: removing posterior snapshot of %s: %v", jobID, err)
	}
}

// loadFromDisk rebuilds the store from the snapshots a previous process
// left behind. Snapshots are admitted oldest-first so the normal LRU
// budget logic keeps the most recently written posteriors when the
// directory holds more than the byte budget allows. A temp file is what a
// crash between writeSnapshot's write and rename left behind; nothing would
// ever load or replace it, so it is swept here, before this process writes.
func (ps *posteriorStore) loadFromDisk() {
	entries, err := os.ReadDir(ps.dir)
	if err != nil {
		log.Printf("phmsed: reading posterior dir %s: %v", ps.dir, err)
		return
	}
	type snap struct {
		path string
		mod  time.Time
	}
	snaps := make([]snap, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), snapshotSuffix+tmpSuffix) {
			if err := os.Remove(filepath.Join(ps.dir, e.Name())); err != nil {
				log.Printf("phmsed: sweeping stale snapshot temp file %s: %v", e.Name(), err)
			}
			continue
		}
		if !strings.HasSuffix(e.Name(), snapshotSuffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		snaps = append(snaps, snap{filepath.Join(ps.dir, e.Name()), info.ModTime()})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].mod.Before(snaps[j].mod) })
	for _, s := range snaps {
		sp, err := readSnapshot(s.path)
		if err != nil {
			log.Printf("phmsed: skipping posterior snapshot %s: %v", s.path, err)
			continue
		}
		ps.mu.Lock()
		ok, evicted := ps.insertLocked(sp)
		if ok {
			ps.loaded++
		}
		ps.mu.Unlock()
		ps.removeEvicted(evicted)
	}
}

// readSnapshot decodes one snapshot back into store form, validating it
// with the same checks the wire form gets.
func readSnapshot(path string) (*storedPosterior, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc encode.PosteriorDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return storedFromDoc(&doc)
}

// posteriorStats is a point-in-time snapshot of the store's accounting.
type posteriorStats struct {
	entries                                 int
	bytes, capacity                         int64
	hits, misses, stored, rejected, evicted int64
	persisted, loaded                       int64
	imported, removed                       int64
}

func (ps *posteriorStore) stats() posteriorStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return posteriorStats{
		entries:   ps.order.Len(),
		bytes:     ps.bytes,
		capacity:  ps.maxBytes,
		hits:      ps.hits,
		misses:    ps.misses,
		stored:    ps.stored,
		rejected:  ps.rejected,
		evicted:   ps.evicted,
		persisted: ps.persisted,
		loaded:    ps.loaded,
		imported:  ps.imported,
		removed:   ps.removed,
	}
}
