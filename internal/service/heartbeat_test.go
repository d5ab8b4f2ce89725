package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/store"
)

// hbFixture builds a heartbeat over a real 3-peer store with a
// scripted probe: outcomes[peer] is consumed one error per probe
// (nil = healthy), sticking on the last entry when exhausted.
func hbFixture(t *testing.T, downAfter, upAfter int) (*heartbeat, *store.Store, map[string][]error) {
	t.Helper()
	peers := []string{"http://a", "http://b", "http://c"}
	st := store.New(store.Config{Self: "http://a", Peers: peers, DownCooldown: time.Hour})
	t.Cleanup(st.Close)
	outcomes := map[string][]error{}
	h := newHeartbeat(st, newMetrics(func() int { return 0 }), time.Second, downAfter, upAfter, 1)
	h.probe = func(_ context.Context, peer string) error {
		script := outcomes[peer]
		if len(script) == 0 {
			return nil
		}
		err := script[0]
		if len(script) > 1 {
			outcomes[peer] = script[1:]
		}
		return err
	}
	return h, st, outcomes
}

// TestHeartbeatStateMachine drives the per-peer state machine through
// its edges on scripted probes: downAfter consecutive failures evict,
// a single blip does not, upAfter successes restore, and a dead peer
// is re-marked on every failed round so the store's cooldown expiry
// cannot resurrect it.
func TestHeartbeatStateMachine(t *testing.T) {
	h, st, outcomes := hbFixture(t, 2, 2)
	boom := errors.New("probe failed")
	ctx := context.Background()

	// One blip: below the threshold, nothing marked.
	outcomes["http://b"] = []error{boom, nil}
	h.runOnce(ctx)
	if st.Down("http://b") {
		t.Fatal("single probe failure evicted the peer")
	}

	// The blip healed, then two consecutive failures: evicted.
	h.runOnce(ctx) // the scripted nil heals the streak
	outcomes["http://b"] = []error{boom}
	h.runOnce(ctx) // fail 1
	if st.Down("http://b") {
		t.Fatal("evicted before downAfter consecutive failures")
	}
	h.runOnce(ctx) // fail 2 -> down edge
	if !st.Down("http://b") {
		t.Fatal("downAfter consecutive failures did not evict")
	}
	if got := h.downPeers(); len(got) != 1 || got[0] != "http://b" {
		t.Errorf("downPeers() = %v, want [http://b]", got)
	}

	// Cooldown expiry (simulated by MarkUp) must not resurrect a peer
	// the prober still sees dead: the next failed round re-marks it.
	st.MarkUp("http://b")
	h.runOnce(ctx)
	if !st.Down("http://b") {
		t.Fatal("still-dead peer re-entered routing after cooldown expiry")
	}

	// Recovery: one success is not enough at upAfter=2, two restore.
	outcomes["http://b"] = []error{nil}
	h.runOnce(ctx)
	if !st.Down("http://b") {
		t.Fatal("restored before upAfter consecutive successes")
	}
	h.runOnce(ctx)
	if st.Down("http://b") {
		t.Fatal("upAfter consecutive successes did not restore")
	}
	if got := h.downPeers(); len(got) != 0 {
		t.Errorf("downPeers() after recovery = %v, want none", got)
	}

	ups, downs := h.met.heartbeatUps.Load(), h.met.heartbeatDowns.Load()
	okProbes, failProbes := h.met.heartbeatOK.Load(), h.met.heartbeatFail.Load()
	if ups != 1 || downs != 1 {
		t.Errorf("transitions = %d up / %d down, want 1/1", ups, downs)
	}
	// 7 rounds x 2 remote peers; http://c's empty script is always ok.
	if okProbes+failProbes != 14 {
		t.Errorf("probes = %d ok + %d fail, want 14 total", okProbes, failProbes)
	}
}

// TestHeartbeatPrunesLeavers: a peer that leaves the membership loses
// its probe state, so a later rejoin starts from a clean machine.
func TestHeartbeatPrunesLeavers(t *testing.T) {
	h, st, outcomes := hbFixture(t, 2, 1)
	boom := errors.New("probe failed")
	ctx := context.Background()

	outcomes["http://b"] = []error{boom}
	h.runOnce(ctx) // fail 1 of 2 — state accumulated, not yet down
	st.RemovePeer("http://b")
	h.runOnce(ctx) // prunes the leaver before probing
	h.mu.Lock()
	_, tracked := h.state["http://b"]
	h.mu.Unlock()
	if tracked {
		t.Fatal("probe state survived the peer leaving")
	}

	// Rejoin: the old failure streak must not count toward eviction.
	st.AddPeer("http://b")
	h.runOnce(ctx) // fail 1 on the fresh machine
	if st.Down("http://b") {
		t.Error("rejoined peer inherited the pre-leave failure streak")
	}
}

// TestHeartbeatJitterDeterministic: the jittered interval stays within
// ±20% of the configured interval and is a pure function of (seed,
// round) — no shared RNG, so replicas desynchronize reproducibly.
func TestHeartbeatJitterDeterministic(t *testing.T) {
	st := store.New(store.Config{Self: "http://a", Peers: []string{"http://a", "http://b"}})
	t.Cleanup(st.Close)
	a := newHeartbeat(st, newMetrics(func() int { return 0 }), time.Second, 2, 1, 42)
	b := newHeartbeat(st, newMetrics(func() int { return 0 }), time.Second, 2, 1, 42)
	lo, hi := 800*time.Millisecond, 1200*time.Millisecond
	distinct := map[time.Duration]bool{}
	for round := uint64(0); round < 50; round++ {
		d := a.jittered(round)
		if d < lo || d > hi {
			t.Fatalf("jittered(%d) = %v, outside [%v, %v]", round, d, lo, hi)
		}
		if d != b.jittered(round) {
			t.Fatalf("jittered(%d) differs across same-seed instances", round)
		}
		distinct[d] = true
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct jittered intervals over 50 rounds", len(distinct))
	}
}

// TestHeartbeatLoopShutdown: the loop ticks on the injected timer
// source, probes each tick, and exits promptly when the server closes
// (Close blocks on the loop's done channel, so a hang fails the test
// by timeout).
func TestHeartbeatLoopShutdown(t *testing.T) {
	peers := []string{"http://self.invalid", "http://peer.invalid"}
	svc, err := New(Config{
		Self:              peers[0],
		Peers:             peers,
		HeartbeatInterval: -1, // the loop is started by hand below
	})
	if err != nil {
		t.Fatal(err)
	}

	// Build the prober with the fake timer source and scripted probe
	// installed BEFORE the loop goroutine starts, then run the real
	// heartbeatLoop exactly as New would — every seam write
	// happens-before the loop reads it.
	ticks := make(chan time.Time)
	probed := make(chan string, 16)
	svc.hb = newHeartbeat(svc.store, svc.met, time.Hour, 0, 0, 1)
	svc.hb.after = func(time.Duration) <-chan time.Time { return ticks }
	svc.hb.probe = func(_ context.Context, peer string) error {
		probed <- peer
		return nil
	}
	svc.hbStopped = make(chan struct{})
	go svc.heartbeatLoop()

	for i := 0; i < 3; i++ {
		ticks <- time.Time{}
		select {
		case peer := <-probed:
			if peer != "http://peer.invalid" {
				t.Fatalf("round %d probed %q, want the remote peer", i, peer)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: tick did not trigger a probe", i)
		}
	}

	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not stop the heartbeat loop")
	}
}
