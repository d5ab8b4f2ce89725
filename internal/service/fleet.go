package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/store"
)

// The fleet layer shards the analysis tier across the peer set by
// relaying whole requests: the replica owning a system's model hash
// (store.Route over the consistent-hash ring) computes and caches its
// artifacts; every other replica forwards the original request body to
// the owner's same endpoint and streams the response back verbatim.
// Relaying requests instead of shipping artifacts keeps the store a
// plain in-memory structure holding live analysis values — nothing is
// ever serialized except what the public API already serializes — and
// makes fleet-wide singleflight fall out for free: all replicas funnel
// one key to one owner, and the owner's store coalesces concurrent
// twins.
//
// Relays are resilient, in three layers, all safe by construction
// because every replica computes byte-identical documents:
//
//   - Retry: a failed attempt (unreachable, or answering 502/503/504)
//     marks the peer down and retries the next ring arc after a
//     decorrelated-jitter backoff, bounded by Config.RelayRetries and
//     by the request's remaining deadline budget.
//   - Hedge: if the first attempt is still pending after
//     Config.HedgeDelay, one hedged attempt races it on the next arc;
//     the first byte-complete response wins and the loser is canceled.
//   - Throttle propagation: a 429 from the owner is admission control,
//     not death — it is never a reason to mark the peer down. Unary
//     relays stream the 429 (with its Retry-After) to the client;
//     campaign items fall back to local compute.
//
// Exhausting every layer is still only a performance event: the
// requester marks the owner down for a cooldown, recomputes locally,
// and the ring re-hashes the owner's keys to the next arc until the
// cooldown expires. Bounds stay sound either way — a fallback costs
// duplicated work, never a wrong-side answer.

// forwardHeader marks a relayed request with the sender's identity. Its
// presence is the loop guard: an owner never re-forwards a relayed
// request, even if a stale ring disagrees about ownership — which is
// what makes membership churn safe: during the window where replicas
// hold different membership versions, the worst case is one extra hop
// ending in a local compute.
const forwardHeader = "X-Twca-Forward"

// servedByHeader names the replica whose store actually answered a
// relayed request — observability for multi-replica deployments.
const servedByHeader = "X-Twca-Served-By"

// relayHeadroom pads the relay deadline over the owner's own analysis
// budget, so an owner that degrades-and-answers right at its deadline
// beats the requester's timeout instead of racing it.
const relayHeadroom = 2 * time.Second

// relayed reports whether r is a relay from a peer replica.
func relayed(r *http.Request) bool { return r.Header.Get(forwardHeader) != "" }

// toOwner relays one request to the replica owning its system hash —
// the fleet's one relay path, shared by the unary endpoints and
// campaign items. It reports false when the caller must compute
// locally: the fleet is off, this replica owns the hash, the request
// already is a relay (hop), or every candidate arc failed. Otherwise
// the owner answered and consume has read its answer: unary callers
// stream it through, campaign callers decode it. A consume error means
// the answer arrived truncated or garbled; the peer is then routed
// around for the down cooldown.
func (s *Server) toOwner(ctx context.Context, hop bool, path, hash string, body []byte, consume func(resp *http.Response, peer string) error) bool {
	if !s.store.Fleet() {
		return false
	}
	if hop {
		// This replica is the owner serving a peer's relay (or the
		// peer's ring disagreed — either way the loop stops here).
		s.store.CountSharedServe()
		return false
	}
	cands := s.store.RemoteCandidates(routeKey(hash))
	if len(cands) == 0 {
		return false
	}
	// The relay budget mirrors the local-compute budget (plus headroom
	// for the wire), bounded by the caller's own context: retries and
	// hedges never outlive what the caller was willing to wait for a
	// local analysis.
	rctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout+relayHeadroom)
	defer cancel()
	resp, peer, release, err := s.relay(rctx, cands, path, body)
	if err != nil {
		// Every candidate arc failed: the caller recomputes the bound
		// from scratch, so a replica death costs duplicated work, never
		// soundness. A caller that went away mid-relay is not the peers'
		// fault; its local path fails with the cancellation mapping.
		if ctx.Err() == nil {
			s.store.CountLocalFallback()
		}
		return false
	}
	defer release()
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		s.met.relayThrottles.Add(1)
	} else {
		s.store.CountPeerHit()
		s.met.cacheOutcome(store.OutcomePeer)
	}
	if err := consume(resp, peer); err != nil && ctx.Err() == nil {
		s.met.relayTruncations.Add(1)
		s.attemptFailed(peer)
	}
	return true
}

// passThrough streams an owner's answer to the client byte for byte, so
// a relayed document is indistinguishable from a locally served one. A
// copy error means the peer died mid-stream: the status line is already
// on the wire, so the client sees a body shorter than its
// Content-Length.
func (s *Server) passThrough(w http.ResponseWriter, endpoint string, resp *http.Response, peer string) error {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(servedByHeader, peer)
	w.WriteHeader(resp.StatusCode)
	s.met.request(endpoint, resp.StatusCode)
	_, err := io.Copy(w, resp.Body)
	return err
}

// relay races body against the candidate peers: a primary attempt on
// cands[0], bounded retries walking the next arcs after decorrelated-
// jitter backoffs, and at most one hedged attempt launched when the
// primary is still pending after HedgeDelay. The winner is the first
// attempt to complete with a non-failure status; its response, the
// peer that served it, and a release func (call after the body is
// consumed) are returned. Losing attempts are canceled and drained in
// the background.
func (s *Server) relay(ctx context.Context, cands []string, path string, body []byte) (*http.Response, string, context.CancelFunc, error) {
	maxAttempts := 1 + s.cfg.RelayRetries + 1 // primary + retries + hedge
	results := make(chan relayAttempt, maxAttempts)
	launched, received, next := 0, 0, 0
	start := func() {
		idx := launched
		peer := cands[next%len(cands)]
		next++
		launched++
		actx, acancel := context.WithCancel(ctx)
		go func() {
			resp, err := s.attempt(actx, peer, path, body)
			results <- relayAttempt{resp: resp, err: err, peer: peer, idx: idx, cancel: acancel}
		}()
	}
	start()

	var hedgeC <-chan time.Time
	if s.cfg.HedgeDelay > 0 && len(cands) > 1 {
		hedgeC = time.After(s.cfg.HedgeDelay)
	}
	hedgeIdx := -1
	retriesLeft := s.cfg.RelayRetries
	backoff := s.cfg.RelayBackoff
	var backoffC <-chan time.Time
	var lastErr error
	for {
		select {
		case res := <-results:
			received++
			if res.err == nil {
				if res.idx == hedgeIdx {
					// The hedged attempt beat every earlier one to a
					// usable response: the hedge won the race.
					s.met.relayHedgeWins.Add(1)
				}
				reapAttempts(results, launched-received)
				return res.resp, res.peer, res.cancel, nil
			}
			res.cancel()
			lastErr = res.err
			if retriesLeft > 0 && backoffC == nil && ctx.Err() == nil && budgetAllows(ctx, backoff) {
				retriesLeft--
				s.met.relayRetries.Add(1)
				backoffC = time.After(backoff)
				backoff = s.nextBackoff(backoff)
				continue
			}
			if received == launched && backoffC == nil {
				return nil, "", nil, lastErr
			}
		case <-backoffC:
			backoffC = nil
			start()
		case <-hedgeC:
			hedgeC = nil
			if launched < maxAttempts && ctx.Err() == nil {
				hedgeIdx = launched
				s.met.relayHedges.Add(1)
				start()
			}
		case <-ctx.Done():
			reapAttempts(results, launched-received)
			if lastErr == nil {
				lastErr = fmt.Errorf("%w: relay: %v", ErrPeerUnavailable, ctx.Err())
			}
			return nil, "", nil, lastErr
		}
	}
}

// relayAttempt is one in-flight relay attempt's outcome. cancel is the
// attempt context's cancel func: the winner's is released only after
// its body has been consumed; losers' are called on reaping.
type relayAttempt struct {
	resp *http.Response
	err  error
	peer string
	// idx is the attempt's launch ordinal (0 = primary), used to
	// attribute a win to the hedged attempt.
	idx    int
	cancel context.CancelFunc
}

// reapAttempts cancels and drains n outstanding attempts in the
// background so their transport resources are reclaimed without
// blocking the winner's response.
func reapAttempts(results chan relayAttempt, n int) {
	if n <= 0 {
		return
	}
	go func() {
		for i := 0; i < n; i++ {
			res := <-results
			res.cancel()
			if res.resp != nil {
				res.resp.Body.Close()
			}
		}
	}()
}

// budgetAllows reports whether ctx's deadline leaves room to sleep d
// and still make an attempt worth starting.
func budgetAllows(ctx context.Context, d time.Duration) bool {
	deadline, ok := ctx.Deadline()
	if !ok {
		return true
	}
	return time.Until(deadline) > d+10*time.Millisecond
}

// nextBackoff advances the decorrelated-jitter schedule: each sleep is
// drawn from [base, 3·prev), capped, with the draw taken from a
// splitmix64 stream (deterministic per process, no math/rand).
func (s *Server) nextBackoff(prev time.Duration) time.Duration {
	base := s.cfg.RelayBackoff
	span := 3*prev - base
	if span <= 0 {
		return base
	}
	d := base + time.Duration(splitmix64(s.relaySeq.Add(1))%uint64(span))
	if cap := 50 * base; d > cap {
		d = cap
	}
	return d
}

// attempt performs one relay attempt against peer. Transport errors
// and 502/503/504 answers mark the peer down (its keys re-hash to the
// next arc) and report ErrPeerUnavailable; every other status — 200,
// client errors, 429 — is the peer's answer and is returned for the
// caller to interpret.
func (s *Server) attempt(ctx context.Context, peer, path string, body []byte) (*http.Response, error) {
	// Fault-injection seam: an injected error makes this attempt fail
	// as if the peer were unreachable (exercising retry/hedge/fallback
	// without killing a listener); an injected delay simulates a slow
	// peer, which is what arms the hedging path deterministically.
	if f := faultinject.At(faultinject.PointServiceRelay); f != nil {
		if err := f.Apply(); err != nil {
			s.attemptFailed(peer)
			return nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, peer, err)
		}
	}
	resp, err := s.forward(ctx, peer, path, body)
	if err != nil {
		if ctx.Err() == nil {
			s.attemptFailed(peer)
		}
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		// The peer is draining, overloaded or itself cut off — treat
		// like unreachable so the next arc (or local compute) takes the
		// key.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.attemptFailed(peer)
		return nil, fmt.Errorf("%w: %s answered %d", ErrPeerUnavailable, peer, resp.StatusCode)
	}
	return resp, nil
}

// forward POSTs body to the peer's endpoint at path, tagged as a relay.
func (s *Server) forward(ctx context.Context, peer, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, peer, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, s.store.Self())
	// Membership mutations need a real credential at the receiver; the
	// forward header alone is a loop guard, not authorization. Analysis
	// relays never carry the secret — they don't need it, and keeping it
	// off them narrows where the credential travels.
	if s.cfg.ClusterSecret != "" && strings.HasPrefix(path, "/v1/cluster/") {
		req.Header.Set(clusterSecretHeader, s.cfg.ClusterSecret)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, peer, err)
	}
	return resp, nil
}

// attemptFailed records one failed relay attempt: the peer sits out
// routing for the down cooldown (its keys re-hash to the next ring
// arc). Unlike a local fallback this is per-attempt accounting — the
// relay as a whole may still succeed on another arc.
func (s *Server) attemptFailed(peer string) {
	s.store.MarkDown(peer)
	s.store.CountPeerUnavailable()
}

// splitmix64 is the finalizer from Vigna's splitmix64 generator — the
// same mixer internal/faultinject uses for deterministic probability
// draws. It feeds backoff jitter and heartbeat phase without math/rand,
// so test runs that pin a seed see identical schedules.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
