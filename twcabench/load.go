package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// lineRec is one received campaign line, kept for verification after
// the timed window: the line's cache value and a hash of its bytes,
// which the oracle's line must match.
type lineRec struct {
	q     int // index into inputs.queries
	index int // position in its batch
	cache string
	sum   uint64
	// timeBudget marks a line degraded by a deadline or the breaker.
	timeBudget bool
}

// docSeed keys the hashes that stand for received documents: a run
// keeps a hash per distinct answer instead of its bytes, and the oracle's
// document must hash the same.
var docSeed = maphash.MakeSeed()

// docKey is one distinct unary answer to a query: the hash of its
// document (without the envelope) and whether a deadline or the breaker
// degraded it.
type docKey struct {
	q          int
	sum        uint64
	timeBudget bool
}

var cacheKey = []byte(`"cache":"`)

// lineCache returns the cache value of a compact campaign line.
func lineCache(line []byte) string {
	i := bytes.Index(line, cacheKey)
	if i < 0 {
		return ""
	}
	v := line[i+len(cacheKey):]
	if j := bytes.IndexByte(v, '"'); j >= 0 {
		v = v[:j]
	}
	return string(v)
}

// clientLog is what one closed-loop client observed. Unary answers are
// counted per distinct document (a correct service answers each query
// with one), so the log stays small however many ops run.
type clientLog struct {
	latMS    []float64
	attempts int
	errs     int      // transport errors, non-200 answers, partial lines
	errMsgs  []string // the first few, for the report
	relayed  int      // answers carrying X-Twca-Served-By
	docs     map[docKey]int
	tails    map[string]map[string]int // kind -> envelope tail -> count
	lines    []lineRec
	spans    []span
	buf      bytes.Buffer
}

func newClientLog() *clientLog {
	return &clientLog{docs: map[docKey]int{}, tails: map[string]map[string]int{}}
}

func (l *clientLog) fail(msg string) {
	l.errs++
	if len(l.errMsgs) < 5 {
		l.errMsgs = append(l.errMsgs, msg)
	}
}

// loadRun drives the timed closed loop: clients run until the deadline
// or until the input stream is used up. pos is the shared stream
// cursor, so consecutive phases continue the stream.
type loadRun struct {
	w       workload
	in      *inputs
	cl      *cluster
	pos     *atomic.Int64
	tracer  *tracer // nil when untraced
	clients int
}

type loadResult struct {
	logs    []*clientLog
	elapsed time.Duration // until the last client stopped
}

func (r *loadRun) run(start time.Time, d time.Duration) loadResult {
	logs := make([]*clientLog, r.clients)
	var wg sync.WaitGroup
	deadline := start.Add(d)
	for c := range logs {
		logs[c] = newClientLog()
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			if r.w.campaign {
				r.campaignLoop(l, deadline)
			} else {
				r.unaryLoop(l, deadline)
			}
		}(logs[c])
	}
	wg.Wait()
	return loadResult{logs: logs, elapsed: time.Since(start)}
}

func (r *loadRun) unaryLoop(l *clientLog, deadline time.Time) {
	for time.Now().Before(deadline) {
		i, ok := r.next()
		if !ok {
			return
		}
		qi := r.in.stream[i]
		q := r.in.queries[qi]
		url := r.cl.urls[i%len(r.cl.urls)] + q.path()
		l.attempts++
		t0 := time.Now()
		resp, err := httpClient.Post(url, "application/json", bytes.NewReader(q.body))
		if err != nil {
			l.fail(err.Error())
			continue
		}
		l.buf.Reset()
		_, err = l.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		if r.tracer != nil {
			r.tracer.client(l, "client."+q.Kind, i, t0, t1)
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			l.fail(fmt.Sprintf("%s: %d %v %.200s", q.path(), resp.StatusCode, err, l.buf.Bytes()))
			continue
		}
		l.latMS = append(l.latMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		if resp.Header.Get("X-Twca-Served-By") != "" {
			l.relayed++
		}
		prefix, tail := splitEnvelope(l.buf.Bytes())
		l.docs[docKey{q: qi, sum: maphash.Bytes(docSeed, prefix), timeBudget: timeBudgetDegraded(prefix)}]++
		tm := l.tails[q.Kind]
		if tm == nil {
			tm = map[string]int{}
			l.tails[q.Kind] = tm
		}
		tm[string(tail)]++
	}
}

// next claims the next stream position; false when the stream, or the
// inputs rendered for this window, ran out.
func (r *loadRun) next() (int, bool) {
	for {
		i := r.pos.Load()
		if int(i) >= len(r.in.stream) || r.in.queries[r.in.stream[i]].body == nil {
			return 0, false
		}
		if r.pos.CompareAndSwap(i, i+1) {
			return int(i), true
		}
	}
}

func (r *loadRun) campaignLoop(l *clientLog, deadline time.Time) {
	var body bytes.Buffer
	for time.Now().Before(deadline) {
		first := int(r.pos.Load())
		last := min(first+campaignBatch, len(r.in.stream))
		if first >= last || r.in.queries[r.in.stream[last-1]].item == nil {
			return // the stream, or the items rendered for this window, ran out
		}
		r.pos.Store(int64(last))
		body.Reset()
		body.WriteString(`{"items":[`)
		for i := first; i < last; i++ {
			if i > first {
				body.WriteByte(',')
			}
			body.Write(r.in.queries[r.in.stream[i]].item)
		}
		body.WriteString(`]}`)
		n := last - first
		l.attempts += n
		t0 := time.Now()
		resp, err := httpClient.Post(r.cl.urls[0]+"/v1/campaign", "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			l.fail(err.Error())
			continue
		}
		got := r.readCampaign(l, resp, first, n, t0)
		resp.Body.Close()
		if got < n {
			l.fail(fmt.Sprintf("campaign at %d: %d of %d lines", first, got, n))
		}
	}
}

// readCampaign consumes one NDJSON stream, timing each result line from
// when the campaign was sent. It returns the result lines received.
func (r *loadRun) readCampaign(l *clientLog, resp *http.Response, first, n int, t0 time.Time) int {
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		l.fail(fmt.Sprintf("campaign: %d %.200s", resp.StatusCode, b))
		return 0
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	got := 0
	for {
		line, err := br.ReadBytes('\n')
		t1 := time.Now()
		if len(line) == 0 && err != nil {
			return got
		}
		if got == n {
			// The summary line closes the stream.
			var sum struct {
				Kind   string `json:"kind"`
				Items  int    `json:"items"`
				Failed int    `json:"failed"`
			}
			if json.Unmarshal(line, &sum) != nil || sum.Kind != "summary" || sum.Items != n || sum.Failed != 0 {
				l.fail(fmt.Sprintf("campaign summary %.200s", line))
			}
			continue
		}
		if r.tracer != nil {
			r.tracer.client(l, "client.campaign_line", first+got, t0, t1)
		}
		l.latMS = append(l.latMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		l.lines = append(l.lines, lineRec{q: r.in.stream[first+got], index: got, cache: lineCache(line),
			sum: maphash.Bytes(docSeed, line), timeBudget: timeBudgetDegraded(line)})
		got++
	}
}
