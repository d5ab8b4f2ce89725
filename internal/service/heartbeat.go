package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// The heartbeat prober is the fleet's active health check. Per-request
// failure detection (a relay attempt marking its peer down) only sees
// peers the traffic happens to route to; the heartbeat probes every
// member's /healthz on a jittered interval and drives the store's
// MarkDown/MarkUp directly, so a dead or draining replica is evicted
// from routing before it costs a request its retry budget — and a
// recovered one rejoins without waiting out the down cooldown.
//
// The prober is a small state machine per peer: HeartbeatDownAfter
// consecutive probe failures mark it down (single blips don't flap the
// ring), one configurable streak of successes marks it back up. A peer
// already down keeps being probed, and every failed probe past the
// threshold re-marks it — so the store's timer-based cooldown expiry
// never lets a still-dead peer back into routing for real traffic.
//
// Determinism contract: the store's routing stays a pure function of
// the membership and down sets (no wall clock — internal/store is in
// the determinism lint scope). The heartbeat lives here in the service
// layer, where time belongs, and keeps its own time injectable: the
// probe function, the timer source (after) and the jitter stream are
// all seams, so the state machine and the loop are tested on a fake
// clock with scripted probe outcomes.

// heartbeatProbeTimeout bounds one /healthz probe round-trip.
const heartbeatProbeTimeout = 2 * time.Second

// heartbeat probes the fleet's peers and drives the store's peer
// health. Construct with newHeartbeat; run runOnce per tick (the
// Server's loop does this on a jittered interval).
type heartbeat struct {
	store     *store.Store
	met       *metrics
	interval  time.Duration
	downAfter int // consecutive failures before MarkDown
	upAfter   int // consecutive successes before MarkUp
	seed      uint64

	// probe checks one peer ("" error = healthy). The default probes
	// GET peer/healthz through the server's HTTP client; tests script
	// it.
	probe func(ctx context.Context, peer string) error
	// after is the timer source for the loop (time.After in
	// production, a fake channel in tests).
	after func(d time.Duration) <-chan time.Time

	mu    sync.Mutex
	state map[string]*peerHealth
}

// peerHealth is one peer's probe state machine.
type peerHealth struct {
	fails int // consecutive probe failures
	oks   int // consecutive probe successes
	down  bool
}

func newHeartbeat(st *store.Store, met *metrics, interval time.Duration, downAfter, upAfter int, seed uint64) *heartbeat {
	if downAfter <= 0 {
		downAfter = 2
	}
	if upAfter <= 0 {
		upAfter = 1
	}
	return &heartbeat{
		store:     st,
		met:       met,
		interval:  interval,
		downAfter: downAfter,
		upAfter:   upAfter,
		seed:      seed,
		after:     time.After,
		state:     make(map[string]*peerHealth),
	}
}

// jittered returns the sleep before probe round n: the configured
// interval ±20%, drawn from the deterministic splitmix64 stream. The
// jitter desynchronizes replicas that started together so a fleet's
// probes don't arrive as a synchronized pulse.
func (h *heartbeat) jittered(round uint64) time.Duration {
	span := h.interval / 5 * 2
	if span <= 0 {
		return h.interval
	}
	return h.interval - span/2 + time.Duration(splitmix64(h.seed^round)%uint64(span))
}

// runOnce probes every remote member once and advances the per-peer
// state machines. Probes run without holding the state lock (they are
// HTTP round-trips); state is updated as each probe returns.
func (h *heartbeat) runOnce(ctx context.Context) {
	m := h.store.Membership()
	remotes := make([]string, 0, len(m.Peers))
	for _, p := range m.Peers {
		if p != m.Self {
			remotes = append(remotes, p)
		}
	}
	h.prune(remotes)
	for _, peer := range remotes {
		err := h.probe(ctx, peer)
		h.record(peer, err)
	}
}

// record advances one peer's state machine with a probe outcome and
// drives the store's MarkDown/MarkUp on the edges.
func (h *heartbeat) record(peer string, probeErr error) {
	h.mu.Lock()
	ph := h.state[peer]
	if ph == nil {
		ph = &peerHealth{}
		h.state[peer] = ph
	}
	var markDown, markUp, transition bool
	if probeErr != nil {
		ph.fails++
		ph.oks = 0
		if ph.fails >= h.downAfter {
			// Re-mark on every probed failure past the threshold: the
			// store's cooldown may have expired meanwhile, and a dead
			// peer must not re-enter routing until a probe succeeds.
			markDown = true
			transition = !ph.down
			ph.down = true
		}
	} else {
		ph.oks++
		ph.fails = 0
		if ph.oks >= h.upAfter {
			markUp = ph.down
			transition = ph.down
			ph.down = false
		}
	}
	h.mu.Unlock()

	if probeErr == nil {
		h.met.heartbeatOK.Add(1)
	} else {
		h.met.heartbeatFail.Add(1)
	}
	if markDown {
		h.store.MarkDown(peer)
		if transition {
			h.met.heartbeatDowns.Add(1)
		}
	}
	if markUp {
		h.store.MarkUp(peer)
		h.met.heartbeatUps.Add(1)
	}
}

// prune drops state for peers no longer in the membership.
func (h *heartbeat) prune(remotes []string) {
	keep := make(map[string]bool, len(remotes))
	for _, p := range remotes {
		keep[p] = true
	}
	h.mu.Lock()
	for p := range h.state {
		if !keep[p] {
			delete(h.state, p)
		}
	}
	h.mu.Unlock()
}

// downPeers lists the peers the state machine currently considers
// down. clusterView merges it into the /v1/cluster peer states, so a
// peer whose store cooldown expired between probe rounds still shows
// as down while the prober sees it dead.
func (h *heartbeat) downPeers() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for p, ph := range h.state {
		if ph.down {
			out = append(out, p)
		}
	}
	return out
}

// probePeer is the production probe: GET peer/healthz with a bounded
// deadline. Any transport error, a non-200 status, or a body whose
// status is not "ok" (a draining replica answers "draining") counts as
// a failed probe — a draining peer should leave routing just like a
// dead one, it simply does so gracefully.
func (s *Server) probePeer(ctx context.Context, peer string) error {
	// Fault-injection seam: an injected error fails this probe as if
	// the peer were unreachable, letting chaos tests drive the state
	// machine to eviction without killing a listener.
	if f := faultinject.At(faultinject.PointServiceHeartbeat); f != nil {
		if err := f.Apply(); err != nil {
			return fmt.Errorf("heartbeat: %s: %w", peer, err)
		}
	}
	pctx, cancel := context.WithTimeout(ctx, heartbeatProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("heartbeat: %s: %v", peer, err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("heartbeat: %s: %v", peer, err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&h); err != nil {
		return fmt.Errorf("heartbeat: %s: bad healthz body: %v", peer, err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		return fmt.Errorf("heartbeat: %s: status %d %q", peer, resp.StatusCode, h.Status)
	}
	return nil
}

// heartbeatLoop runs the prober until the server's root context is
// canceled. Each round sleeps the jittered interval first, so a
// just-started replica doesn't immediately declare silent peers dead
// while they are still binding their listeners.
func (s *Server) heartbeatLoop() {
	defer close(s.hbStopped)
	for round := uint64(0); ; round++ {
		select {
		case <-s.root.Done():
			return
		case <-s.hb.after(s.hb.jittered(round)):
		}
		s.hb.runOnce(s.root)
	}
}
