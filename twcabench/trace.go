package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call: the benchmark records spans around its own
// calls into each layer, never inside the program.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Op     int32  `json:"op"`     // stream position of the op it belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Replay spans are
// recorded by one goroutine; client spans go to each client's log.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// client records one client call of a traced load phase.
func (t *tracer) client(l *clientLog, name string, op int, t0, t1 time.Time) {
	l.spans = append(l.spans, span{Parent: -1, Op: int32(op), Name: name, Start: t.since(t0), End: t.since(t1)})
}

// start opens a replay span and returns its id.
func (t *tracer) start(name string, parent int32, op int) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: int32(op), Name: name, Start: t.since(time.Now())})
	return id
}

func (t *tracer) finish(id int32) { t.spans[id].End = t.since(time.Now()) }

// layerStats aggregates the spans of one name.
type layerStats struct {
	calls  int
	selfNS int64
	durs   []int64
}

func (l *layerStats) meanSelfUS() float64 {
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.selfNS) / float64(l.calls) / 1e3
}

func (l *layerStats) p50US() float64 {
	if l == nil || len(l.durs) == 0 {
		return 0
	}
	d := append([]int64(nil), l.durs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[(len(d)-1)/2]) / 1e3
}

// aggregate computes every layer's self time: a span's duration minus
// the durations of its child spans. Children of one span never overlap
// (the replay is sequential). A child may also lie outside its parent's
// interval: where a public function contains another layer (twca.NewCtx
// runs segments and latency; schema.FromAnalysisStats runs the ILP),
// the replay times the inner call alone on the same input and records
// it as a child of the outer call, so the outer call's self time is the
// difference.
func aggregate(spans []span) map[string]*layerStats {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*layerStats{}
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStats{}
			out[s.Name] = l
		}
		l.calls++
		l.selfNS += max(s.dur()-child[i], 0)
		l.durs = append(l.durs, s.dur())
	}
	return out
}

// dumpSpans writes the replay spans and the client spans of the traced
// load phases as gzipped JSON lines; client spans are numbered after the
// replay's.
func dumpSpans(path string, replay, clients []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i, s := range append(replay[:len(replay):len(replay)], clients...) {
		s.ID = int32(i)
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
