package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"repro/internal/parallel"
	"repro/internal/schema"
)

// campaignItem is one system/query of a campaign: the unary request
// envelope plus an optional client correlation ID and the analysis kind
// ("dmm", the default, or "latency").
type campaignItem struct {
	analyzeRequest
	ID   string `json:"id,omitempty"`
	Kind string `json:"kind,omitempty"`
}

// campaignRequest is the /v1/campaign body: many items, analyzed
// through the same worker pool, artifact store and degradation ladder
// as the unary endpoints, with results streamed back as NDJSON in item
// order.
type campaignRequest struct {
	Items []campaignItem `json:"items"`
	// Defaults, when set, replaces the options of every item that left
	// its options block entirely unset — the common sweep shape of "many
	// systems, one configuration" without repeating it per item.
	Defaults *reqOptions `json:"defaults,omitempty"`
}

// handleCampaign streams one schema.CampaignLine per item as NDJSON.
// The stream commits to 200 before the first analysis runs; item
// failures become campaign_partial lines instead of aborting, and a
// final summary line closes the stream. The per-request timeout applies
// per item, not to the whole stream.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, "campaign", err)
		return
	}
	var req campaignRequest
	if err := decodeStrict(body, &req); err != nil {
		s.fail(w, "campaign", err)
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, "campaign", badRequestError{fmt.Errorf("campaign needs items")})
		return
	}
	if len(req.Items) > s.cfg.MaxCampaignItems {
		s.fail(w, "campaign", badRequestError{
			fmt.Errorf("campaign has %d items; the limit is %d — split the sweep", len(req.Items), s.cfg.MaxCampaignItems)})
		return
	}

	workers := s.cfg.CampaignWorkers
	if workers <= 0 {
		workers = s.cfg.MaxInflight
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(req.Items) {
		workers = len(req.Items)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Workers push completed lines over a small bounded channel; the
	// writer drains it, reordering into request order. A slow reader
	// therefore exerts backpressure: once the channel and the writer's
	// reorder buffer absorb the in-flight items, workers block before
	// starting new analyses instead of racing ahead of the consumer. A
	// disconnected client cancels ctx, which fails the remaining items
	// instantly and frees the workers (and their admission slots).
	ctx := r.Context()
	type indexed struct {
		i    int
		line schema.CampaignLine
	}
	results := make(chan indexed, 2*workers)
	go func() {
		defer close(results)
		// Worker panics inside an item surface as that item's
		// campaign_partial line via the store/parallel recovery, so the
		// error return here is always nil.
		parallel.ForEach(workers, len(req.Items), func(i int) error {
			line := s.campaignLine(ctx, req.Items[i], i, req.Defaults)
			select {
			case results <- indexed{i, line}:
			case <-ctx.Done():
			}
			return nil
		})
	}()

	enc := json.NewEncoder(w) // compact marshal; Encode terminates each line with \n
	next, failed := 0, 0
	pending := make(map[int]schema.CampaignLine, workers)
	for res := range results {
		pending[res.i] = res.line
		for {
			line, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if ctx.Err() != nil {
				continue // client gone: drain the pool without writing
			}
			if line.Kind == schema.CampaignKindPartial {
				failed++
				s.met.campaignFailed.Add(1)
			} else {
				s.met.campaignOK.Add(1)
			}
			enc.Encode(line)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	if ctx.Err() == nil {
		enc.Encode(schema.CampaignLine{
			SchemaVersion: schema.Version,
			Index:         len(req.Items),
			Kind:          schema.CampaignKindSummary,
			Items:         len(req.Items),
			Failed:        failed,
		})
		if flusher != nil {
			flusher.Flush()
		}
	}
	s.met.request("campaign", http.StatusOK)
}

// campaignLine evaluates one item to its stream line through its
// kind's unary endpoint: validated, relayed to the owning replica when
// the fleet is sharded (with local fallback if the owner is
// unreachable), and otherwise answered by the endpoint's document
// function — so a campaign line is byte-identical to the unary
// document.
func (s *Server) campaignLine(ctx context.Context, item campaignItem, i int, defaults *reqOptions) schema.CampaignLine {
	line := schema.CampaignLine{SchemaVersion: schema.Version, Index: i, ID: item.ID}
	kind := cmp.Or(item.Kind, schema.CampaignKindDMM)
	ep := endpoints[kind]
	if ep == nil || ep.item == nil {
		return partialLine(line, fmt.Sprintf("unknown item kind %q (want %q or %q)",
			item.Kind, schema.CampaignKindDMM, schema.CampaignKindLatency), "invalid_options")
	}
	line.Kind = kind
	if defaults != nil && item.Options == (reqOptions{}) {
		item.Options = *defaults
	}
	q := query{start: time.Now()}
	sys, hash, err := s.system(&item.analyzeRequest)
	if err != nil {
		return partialLine(line, err.Error(), "bad_request")
	}
	q.resolved, q.sys = newResolved(ep, &item.analyzeRequest, hash), sys
	line.SystemHash = q.hash
	ictx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()

	if s.relayLine(ictx, ep, q, &line) {
		return line
	}
	out, err := ep.document(s, ictx, q)
	if err != nil {
		return s.localFailure(line, err)
	}
	s.accountQuality(q.hash, out)
	return out.body.(lineDoc).toLine(line)
}

// relayLine answers a campaign item on the replica owning its system,
// through the owner's unary endpoint, and decodes the answer into line.
// It reports false when the item must be computed locally.
func (s *Server) relayLine(ctx context.Context, ep *endpoint, q query, line *schema.CampaignLine) bool {
	if !s.store.Fleet() {
		return false // a single node skips encoding the item
	}
	body, err := json.Marshal(q.req)
	if err != nil {
		return false
	}
	answered := false
	routed := s.toOwner(ctx, false, ep.path, q.hash, body, func(resp *http.Response, peer string) error {
		// Drain what decoding left, so the connection is reused.
		defer io.Copy(io.Discard, resp.Body)
		switch resp.StatusCode {
		case http.StatusOK:
			doc := ep.item()
			if err := json.NewDecoder(resp.Body).Decode(doc); err != nil {
				// A half-written or garbled body is a peer failure, not
				// an item failure: recompute locally rather than guess.
				return err
			}
			*line = doc.toLine(*line)
		case http.StatusTooManyRequests:
			// The owner is alive but shedding load: compute locally.
			return nil
		default:
			// The owner's error classification carries over to the
			// item's campaign_partial line.
			var e errorResponse
			if json.NewDecoder(resp.Body).Decode(&e) != nil || e.Error == "" {
				e = errorResponse{Error: fmt.Sprintf("peer %s answered status %d", peer, resp.StatusCode)}
			}
			*line = partialLine(*line, e.Error, e.Kind)
		}
		answered = true
		return nil
	})
	if routed && !answered {
		s.store.CountLocalFallback()
	}
	return answered
}

// partialLine converts line into a campaign_partial error line.
func partialLine(line schema.CampaignLine, msg, cause string) schema.CampaignLine {
	line.Kind = schema.CampaignKindPartial
	line.Error = msg
	line.Cause = cause
	return line
}

// localFailure converts a local item error into its partial line, with
// the same sentinel classification (and worker-panic accounting) the
// unary endpoints report.
func (s *Server) localFailure(line schema.CampaignLine, err error) schema.CampaignLine {
	_, cause := classify(err)
	if cause == "worker_panic" {
		s.met.workerPanics.Add(1)
	}
	return partialLine(line, err.Error(), cause)
}
