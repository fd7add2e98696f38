package encode

// Wire types for the replicated control plane: the epoch-stamped
// membership document router replicas gossip between each other, and the
// read-only cluster view served to operators at GET /cluster/v1/state.
//
// The document is a last-writer-wins register versioned by a monotonic
// Epoch. Only admin operations write it: each bumps the epoch by one under
// that replica's admin mutex (a compare-and-swap against its own current
// doc), stamps the mutating replica as Origin, and recomputes the content
// Hash. Replicas exchange documents periodically; the higher-epoch
// document wins outright, and an equal-epoch conflict is broken
// deterministically by comparing hashes so both sides converge on the same
// winner without coordination.

// ClusterMember is one shard's entry in the membership document. It
// carries exactly the state a peer router needs to rebuild the same ring:
// the placement key (Base) and the drain fence.
type ClusterMember struct {
	// Base is the shard's base URL — the ring placement key.
	Base string `json:"base"`
	// DrainState mirrors the shard's admin drain fence: "" (active),
	// "draining" (fenced, evacuation in progress) or "drained" (fenced
	// and parked). Fenced members stay in the document but out of the
	// ring.
	DrainState string `json:"drain_state,omitempty"`
}

// ClusterDoc is the replicated membership document.
type ClusterDoc struct {
	// Epoch is the monotonic version; the higher epoch wins a merge.
	Epoch uint64 `json:"epoch"`
	// Origin is the replica id that produced this version.
	Origin string `json:"origin,omitempty"`
	// Members lists every shard the cluster knows, sorted by Base.
	Members []ClusterMember `json:"members"`
	// Hash is the hex sha-256 over the canonical encoding of the
	// document with Hash itself emptied.
	Hash string `json:"hash"`
}

// ClusterPeer reports one configured gossip peer's health as seen from
// the serving replica.
type ClusterPeer struct {
	// Base is the peer router's base URL as configured via -peers.
	Base string `json:"base"`
	// LastContactUnixMs is the wall clock of the last successful
	// exchange, 0 if never reached.
	LastContactUnixMs int64 `json:"last_contact_unix_ms,omitempty"`
	// LastError is the most recent exchange failure, cleared on
	// success.
	LastError string `json:"last_error,omitempty"`
	// InSync reports whether the last exchange found the peer already
	// holding our document.
	InSync bool `json:"in_sync"`
}

// ClusterView is the response of GET /cluster/v1/state: the serving
// replica's identity, its current document and its view of its peers.
type ClusterView struct {
	ReplicaID string        `json:"replica_id"`
	Doc       ClusterDoc    `json:"doc"`
	Peers     []ClusterPeer `json:"peers,omitempty"`
}

// GossipRequest is the body of POST /cluster/v1/state, one anti-entropy
// exchange: the sender's full document, for the receiver to merge.
type GossipRequest struct {
	// From is the sending replica's id.
	From string `json:"from"`
	// Doc is the sender's current document.
	Doc ClusterDoc `json:"doc"`
}

// GossipResponse answers an exchange.
type GossipResponse struct {
	// From is the responding replica's id.
	From string `json:"from"`
	// Doc is the document the receiver held before it merged the
	// sender's, omitted when the two were identical. The sender merges
	// it, so one exchange shows each side the other's document.
	Doc *ClusterDoc `json:"doc,omitempty"`
}
