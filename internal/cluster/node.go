package cluster

import (
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"phmse/internal/encode"
)

// exchangeTimeout bounds one peer exchange.
const exchangeTimeout = 3 * time.Second

// Config wires a Node to its replica identity, its peers, and the router
// callbacks that apply adopted documents.
type Config struct {
	// ReplicaID names this replica in Origin stamps and gossip
	// exchanges.
	ReplicaID string
	// Peers lists the other router replicas' base URLs.
	Peers []string
	// Interval is the gossip period. 0 picks the 1s default; a
	// negative value disables the background loop (exchanges still
	// happen via GossipNow and inbound HandleExchange — the test
	// mode).
	Interval time.Duration
	// AuthToken, when set, is presented as a bearer token on outbound
	// exchanges (peers gate /cluster/v1/state behind their admin
	// token).
	AuthToken string
	// HTTPClient overrides the exchange transport (tests).
	HTTPClient *http.Client
	// OnAdopt fires after a remote document has replaced the local
	// one, outside the node lock. The router applies the new
	// membership there; it must tolerate being called for documents it
	// has already folded in.
	OnAdopt func()
	// OnConflict fires when an equal-epoch remote document lost the
	// tie-break and was rejected, outside the node lock.
	OnConflict func(remoteOrigin, remoteHash string)
}

// Node holds one replica's copy of the membership document and runs the
// anti-entropy exchanges that keep it converged with its peers.
type Node struct {
	cfg Config

	mu    sync.Mutex
	doc   encode.ClusterDoc
	peers []*peerState

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	rounds    atomic.Int64
	adopted   atomic.Int64
	conflicts atomic.Int64
	failures  atomic.Int64
	rejected  atomic.Int64
}

type peerState struct {
	base        string
	lastContact time.Time
	lastErr     string
	inSync      bool
}

// New builds a node around an initial document. The document is stamped
// (normalized + hashed) as given — replicas booted from identical -shards
// flags start with identical epoch-0 documents and are in sync before the
// first exchange.
func New(cfg Config, initial encode.ClusterDoc) *Node {
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: exchangeTimeout}
	}
	Stamp(&initial)
	n := &Node{
		cfg:  cfg,
		doc:  initial,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		n.peers = append(n.peers, &peerState{base: p})
	}
	return n
}

// Start launches the background gossip loop. With no peers or a negative
// interval there is nothing to run and the loop exits immediately.
func (n *Node) Start() {
	go n.loop()
}

// Close stops the gossip loop and waits for it.
func (n *Node) Close() {
	close(n.stop)
	<-n.done
}

// Kick requests an immediate gossip round (coalesced). Admin mutations
// kick so changes propagate without waiting out the interval.
func (n *Node) Kick() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// Current returns a deep copy of the node's document.
func (n *Node) Current() encode.ClusterDoc {
	n.mu.Lock()
	defer n.mu.Unlock()
	return cloneDoc(n.doc)
}

// Mutate runs one CAS-style local mutation: fn receives a copy of the
// current document with the epoch already bumped and this replica
// stamped as origin, edits it in place, and returns whether to commit.
// On commit the stamped result becomes current and is returned with
// changed=true; on abort the original document is returned unchanged.
// The whole step runs under the node lock, so concurrent local mutations
// serialize and each consumes its own epoch.
func (n *Node) Mutate(fn func(doc *encode.ClusterDoc) bool) (encode.ClusterDoc, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	next := cloneDoc(n.doc)
	next.Epoch++
	next.Origin = n.cfg.ReplicaID
	if !fn(&next) {
		return cloneDoc(n.doc), false
	}
	Stamp(&next)
	n.doc = next
	return cloneDoc(next), true
}

// mergeOutcome classifies what merge did with a remote document.
type mergeOutcome int

const (
	mergeRejected        mergeOutcome = iota // bad hash: ignored
	mergeInSync                              // identical content
	mergeStale                               // local wins (higher epoch)
	mergeAdopted                             // remote wins (higher epoch)
	mergeAdoptedConflict                     // equal epoch, remote hash wins
	mergeKeptConflict                        // equal epoch, local hash wins
)

// merge folds a remote document into the node under the merge rule and
// fires the adopt/conflict callbacks outside the lock.
func (n *Node) merge(remote encode.ClusterDoc) mergeOutcome {
	if HashDoc(remote) != remote.Hash {
		n.rejected.Add(1)
		log.Printf("cluster: rejecting doc from %q: hash mismatch", remote.Origin)
		return mergeRejected
	}
	n.mu.Lock()
	out := mergeStale
	switch {
	case remote.Hash == n.doc.Hash && remote.Epoch == n.doc.Epoch:
		out = mergeInSync
	case remote.Epoch > n.doc.Epoch:
		n.doc = cloneDoc(remote)
		out = mergeAdopted
	case remote.Epoch == n.doc.Epoch && remote.Hash != n.doc.Hash:
		if Wins(remote, n.doc) {
			n.doc = cloneDoc(remote)
			out = mergeAdoptedConflict
		} else {
			out = mergeKeptConflict
		}
	}
	n.mu.Unlock()

	switch out {
	case mergeAdopted, mergeAdoptedConflict:
		n.adopted.Add(1)
		if out == mergeAdoptedConflict {
			n.conflicts.Add(1)
		}
		if n.cfg.OnAdopt != nil {
			n.cfg.OnAdopt()
		}
	case mergeKeptConflict:
		n.conflicts.Add(1)
		if n.cfg.OnConflict != nil {
			n.cfg.OnConflict(remote.Origin, remote.Hash)
		}
	}
	return out
}

// Stats is a point-in-time snapshot for /metrics.
type Stats struct {
	ReplicaID string
	Epoch     uint64
	Origin    string
	Hash      string
	Members   int
	Peers     []encode.ClusterPeer
	Rounds    int64
	Adopted   int64
	Conflicts int64
	Failures  int64
	Rejected  int64
}

// Snapshot assembles the node's stats.
func (n *Node) Snapshot() Stats {
	n.mu.Lock()
	st := Stats{
		ReplicaID: n.cfg.ReplicaID,
		Epoch:     n.doc.Epoch,
		Origin:    n.doc.Origin,
		Hash:      n.doc.Hash,
		Members:   len(n.doc.Members),
		Peers:     n.peerStatesLocked(),
	}
	n.mu.Unlock()
	st.Rounds = n.rounds.Load()
	st.Adopted = n.adopted.Load()
	st.Conflicts = n.conflicts.Load()
	st.Failures = n.failures.Load()
	st.Rejected = n.rejected.Load()
	return st
}

// PeerStates reports the configured peers' last-exchange health.
func (n *Node) PeerStates() []encode.ClusterPeer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peerStatesLocked()
}

func (n *Node) peerStatesLocked() []encode.ClusterPeer {
	out := make([]encode.ClusterPeer, 0, len(n.peers))
	for _, p := range n.peers {
		cp := encode.ClusterPeer{Base: p.base, LastError: p.lastErr, InSync: p.inSync}
		if !p.lastContact.IsZero() {
			cp.LastContactUnixMs = p.lastContact.UnixMilli()
		}
		out = append(out, cp)
	}
	return out
}

func (n *Node) peerOK(p *peerState, inSync bool) {
	n.mu.Lock()
	p.lastContact = time.Now()
	p.lastErr = ""
	p.inSync = inSync
	n.mu.Unlock()
}

func (n *Node) peerFail(p *peerState, err error) {
	n.failures.Add(1)
	n.mu.Lock()
	p.lastErr = err.Error()
	p.inSync = false
	n.mu.Unlock()
}
