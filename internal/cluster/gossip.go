package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"phmse/internal/encode"
)

// maxGossipBody bounds an exchange body; membership documents are tiny,
// so anything near this is a broken or hostile peer.
const maxGossipBody = 4 << 20

// loop runs the periodic anti-entropy rounds, with ±20% jitter so
// replicas sharing a boot instant don't exchange in lockstep, and a kick
// channel so admin mutations propagate without waiting out the interval.
func (n *Node) loop() {
	defer close(n.done)
	if len(n.peers) == 0 || n.cfg.Interval < 0 {
		<-n.stop
		return
	}
	for {
		d := n.cfg.Interval
		d += time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
		t := time.NewTimer(d)
		select {
		case <-n.stop:
			t.Stop()
			return
		case <-t.C:
		case <-n.kick:
			t.Stop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), exchangeTimeout*time.Duration(len(n.peers)+1))
		n.GossipNow(ctx)
		cancel()
	}
}

// GossipNow runs one synchronous anti-entropy round against every peer:
// digest probe, pull (adopt the peer's winning document), or push (send
// ours when it wins). By return, any document adopted from a peer has
// been applied via OnAdopt, and any peer our document beat has received
// and merged it — "within one gossip round" is literal.
func (n *Node) GossipNow(ctx context.Context) {
	n.rounds.Add(1)
	for _, p := range n.peers {
		n.exchange(ctx, p)
	}
}

// exchange runs the push/pull protocol with one peer.
func (n *Node) exchange(ctx context.Context, p *peerState) {
	local := n.Current()
	resp, err := n.post(ctx, p, encode.GossipRequest{From: n.cfg.ReplicaID, Digest: local.Hash})
	if err != nil {
		n.peerFail(p, err)
		return
	}
	if resp.InSync {
		n.inSync.Add(1)
		n.peerOK(p, true)
		return
	}
	if resp.Doc == nil {
		n.peerFail(p, fmt.Errorf("peer %s: out-of-sync response carried no document", p.base))
		return
	}
	switch n.merge(*resp.Doc) {
	case mergeAdopted, mergeAdoptedConflict, mergeInSync:
		// Pulled the peer's state (or discovered we already converged
		// racing another round); nothing to push.
		n.peerOK(p, true)
		return
	case mergeRejected:
		n.peerFail(p, fmt.Errorf("peer %s: document failed hash validation", p.base))
		return
	}
	// Local document wins: push it so the peer converges this round.
	local = n.Current()
	n.pushes.Add(1)
	resp, err = n.post(ctx, p, encode.GossipRequest{From: n.cfg.ReplicaID, Digest: local.Hash, Doc: &local})
	if err != nil {
		n.peerFail(p, err)
		return
	}
	if resp.Doc != nil {
		// The peer answered with yet another document (it raced a
		// mutation); fold it in rather than waiting a round.
		n.merge(*resp.Doc)
	}
	n.peerOK(p, resp.InSync || resp.Adopted)
}

// HandleExchange serves the receiving half of POST /cluster/v1/state: a
// digest probe answers in-sync or returns our document (pull); a push
// merges the sender's document and answers with ours when the sides
// still differ.
func (n *Node) HandleExchange(req encode.GossipRequest) encode.GossipResponse {
	resp := encode.GossipResponse{From: n.cfg.ReplicaID}
	if req.Doc != nil {
		out := n.merge(*req.Doc)
		resp.Adopted = out == mergeAdopted || out == mergeAdoptedConflict
	}
	local := n.Current()
	if req.Digest == local.Hash || (req.Doc != nil && req.Doc.Hash == local.Hash) {
		if req.Doc == nil {
			n.inSync.Add(1)
		}
		resp.InSync = true
		return resp
	}
	resp.Doc = &local
	return resp
}

// post sends one exchange request to a peer's /cluster/v1/state.
func (n *Node) post(ctx context.Context, p *peerState, body encode.GossipRequest) (encode.GossipResponse, error) {
	var out encode.GossipResponse
	raw, err := json.Marshal(body)
	if err != nil {
		return out, err
	}
	ctx, cancel := context.WithTimeout(ctx, exchangeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/cluster/v1/state", bytes.NewReader(raw))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	if n.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+n.cfg.AuthToken)
	}
	resp, err := n.cfg.HTTPClient.Do(req)
	if err != nil {
		return out, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxGossipBody))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("peer %s: exchange status %d", p.base, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxGossipBody)).Decode(&out); err != nil {
		return out, fmt.Errorf("peer %s: decoding exchange response: %w", p.base, err)
	}
	return out, nil
}
