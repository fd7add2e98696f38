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

// JitterInterval spreads d over [0.8d, 1.2d), so replicas sharing a boot
// instant do not run a periodic loop in lockstep. A non-positive d passes
// through unchanged.
func JitterInterval(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d - d/5 + time.Duration(rand.Int63n(int64(d)/5*2+1))
}

// loop runs the periodic anti-entropy rounds, jittered ±20%, and a kick
// channel so admin mutations propagate without waiting out the interval.
func (n *Node) loop() {
	defer close(n.done)
	if len(n.peers) == 0 || n.cfg.Interval < 0 {
		<-n.stop
		return
	}
	for {
		t := time.NewTimer(JitterInterval(n.cfg.Interval))
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

// GossipNow runs one synchronous anti-entropy round: one exchange with
// every peer. By return, each reachable peer has merged our document and
// we have merged its, with any adopted document applied via OnAdopt on
// either side — "within one gossip round" is literal.
func (n *Node) GossipNow(ctx context.Context) {
	n.rounds.Add(1)
	for _, p := range n.peers {
		n.exchange(ctx, p)
	}
}

// exchange posts our document to one peer and merges the document the
// peer held before merging ours, if the two differed.
func (n *Node) exchange(ctx context.Context, p *peerState) {
	resp, err := n.post(ctx, p, encode.GossipRequest{From: n.cfg.ReplicaID, Doc: n.Current()})
	if err != nil {
		n.peerFail(p, err)
		return
	}
	if resp.Doc != nil && n.merge(*resp.Doc) == mergeRejected {
		n.peerFail(p, fmt.Errorf("peer %s: document failed hash validation", p.base))
		return
	}
	n.peerOK(p, resp.Doc == nil)
}

// HandleExchange serves the receiving half of POST /cluster/v1/state: it
// merges the sender's document and, when the two differed, answers with
// the document it held before the merge. The merge (and any membership
// apply it triggers) completes before the answer.
func (n *Node) HandleExchange(req encode.GossipRequest) encode.GossipResponse {
	resp := encode.GossipResponse{From: n.cfg.ReplicaID}
	local := n.Current()
	if req.Doc.Hash == local.Hash {
		return resp
	}
	n.merge(req.Doc)
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
