// Command twcabench is the repository's benchmark. It stands up
// twca-serve replicas in-process (one node, or three on loopback
// listeners sharing one ring), drives one named workload from seeded
// inputs in a closed loop, checks every answer byte for byte against
// the library, and prints every metric by name and unit. The last line
// of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 the run is traced and reports the
// per-layer ones ("per_layer"), from a replay of the workload's own
// inputs through each layer's public entry point.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash twcabench/run.sh --workload warm-unary --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// gcPercent is the GOGC the benchmark process runs with. The servers'
// heap is small (tens of MB) against hundreds of MB/s of allocation, so
// at the default of 100 the collector runs 10-20 times a second on two
// CPUs, and its stop-the-world phases and worker wake-ups made identical
// fleet runs differ by up to 20% in throughput and p50 (at 400, by a few
// percent, at twice the memory). Allocation cost still shows in
// allocs_per_op, alloc_bytes_per_op and cpu_us_per_op.
const gcPercent = 200

// spansDir, under the checkout's build directory, receives the span dump
// of every traced run.
var spansDir = filepath.Join(".bench_build", "spans")

func main() {
	debug.SetGCPercent(gcPercent)
	fs := flag.NewFlagSet("twcabench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: warm-unary, cold-campaign or fleet-mixed")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "twcabench: need -workload (one of %s), -seconds ≥ 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: spansDir}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twcabench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var b bytes.Buffer
	for i, w := range workloads {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(w.name)
	}
	return b.String()
}

type config struct {
	w        workload
	seed     int64
	seconds  int
	trace    bool
	spansDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 9

// replayOps is the stream prefix the work fingerprint and the traced
// replay cover; it is fixed, so both repeat exactly for a seed.
var replayOps = map[string]int{
	"warm-unary": 384, "cold-campaign": 160, "fleet-mixed": 384,
}

func run(cfg config, stdout io.Writer) (*result, error) {
	in, err := generate(cfg.w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	clients := min(cfg.w.clients, runtime.NumCPU())
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%t clients=%d replicas=%d nproc=%d gomaxprocs=%d go=%s\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, clients, cfg.w.replicas, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(stdout, "input_digest=%s queries=%d stream=%d\n", in.digest, len(in.queries), len(in.stream))

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var cl *cluster
	for r := 0; r < reps; r++ {
		if cl != nil {
			cl.close()
			runtime.GC()
		}
		t0 := time.Now()
		if cl, err = startCluster(cfg.w.replicas, cfg.w.replicas > 1); err != nil {
			return nil, fmt.Errorf("start servers: %w", err)
		}
		if err := warmup(cfg.w, cl, in); err != nil {
			cl.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	lr := &loadRun{w: cfg.w, in: in, cl: cl, pos: new(atomic.Int64), clients: clients}
	var phases []phase
	var tr *tracer
	if !cfg.trace {
		p, err := measure(lr, time.Second, cfg.seconds)
		phases = append(phases, p)
		if err != nil {
			cl.close()
			return nil, err
		}
	} else {
		// Untraced and traced quarters alternate, so drift within the
		// run does not bias the tracing overhead.
		tr = newTracer()
		for i := 0; i < 4; i++ {
			lr.tracer = nil
			if i%2 == 1 {
				lr.tracer = tr
			}
			p, err := measure(lr, time.Duration(cfg.seconds)*time.Second/4, 1)
			p.traced = lr.tracer != nil
			phases = append(phases, p)
			if err != nil {
				cl.close()
				return nil, err
			}
		}
	}
	cl.close()

	var logs []*clientLog
	for _, p := range phases {
		logs = append(logs, p.logs()...)
	}
	or := newOracle()
	prefix := in.stream[:min(replayOps[cfg.w.name], len(in.stream))]
	v, fp, err := verifyRun(in, or, logs, prefix)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	fmt.Fprintf(stdout, "work_fingerprint ops=%d ilp_nodes=%d combinations=%d iterations=%d\n",
		len(prefix), fp.ILPNodes, fp.Combinations, fp.Iterations)
	fmt.Fprintf(stdout, "ops=%d attempted=%d failed=%d failed_ratio=%g degraded=%d degraded_ratio=%g latency_samples=%d\n",
		v.ops, v.attempted, v.failed(), ratio(v.failed(), v.attempted), v.degraded, ratio(v.degraded, v.ops), v.ops)
	for _, m := range v.msgs {
		fmt.Fprintln(stdout, "failure:", m)
	}

	res := &result{Correct: v.failed() == 0, Attempted: v.attempted, Failed: v.failed(), Metrics: map[string]metric{}}
	if v.attempted == 0 {
		return nil, errors.New("no op was attempted")
	}
	if !cfg.trace {
		endToEnd(stdout, res.Metrics, phases[0], v, median(setups))
	} else {
		if err := perLayer(res.Metrics, cfg, in, tr, phases, v); err != nil {
			return nil, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// warmup is the last step of set-up: it sends the warm-up inputs, which
// fill the caches the timed stream relies on.
func warmup(w workload, cl *cluster, in *inputs) error {
	if w.campaign {
		var body bytes.Buffer
		body.WriteString(`{"items":[`)
		for i, q := range in.warmup {
			if i > 0 {
				body.WriteByte(',')
			}
			body.Write(q.item)
		}
		body.WriteString(`]}`)
		out, _, err := post(cl.urls[0]+"/v1/campaign", body.Bytes())
		if err != nil {
			return err
		}
		if !bytes.Contains(out, []byte(fmt.Sprintf(`"kind":"summary","items":%d}`, len(in.warmup)))) {
			return fmt.Errorf("warm-up campaign failed: %.300s", out)
		}
		return nil
	}
	for i, q := range in.warmup {
		if _, _, err := post(cl.urls[i%len(cl.urls)]+q.path(), q.body); err != nil {
			return err
		}
	}
	return nil
}

// phase is a run of consecutive timed windows ("slices") with the
// /metrics scrapes around it.
type phase struct {
	traced        bool
	slices        []slice
	before, after counters
	rssMB         float64
}

// slice is one closed-loop window with process samples at its ends.
type slice struct {
	res  loadResult
	a, b sample
}

// sample is a snapshot of the process's CPU time and allocation
// counters.
type sample struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

func takeSample() sample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return sample{at: time.Now(), cpu: cpuTime(), mallocs: m.Mallocs, allocBytes: m.TotalAlloc, gcs: m.NumGC}
}

func (s slice) ops() int {
	n := 0
	for _, l := range s.res.logs {
		n += len(l.latMS)
	}
	return n
}

func (p phase) logs() []*clientLog {
	var out []*clientLog
	for _, s := range p.slices {
		out = append(out, s.res.logs...)
	}
	return out
}

func (p phase) ops() (n int) {
	for _, s := range p.slices {
		n += s.ops()
	}
	return n
}

func (p phase) seconds() (sec float64) {
	for _, s := range p.slices {
		sec += s.b.at.Sub(s.a.at).Seconds()
	}
	return sec
}

// measure runs n consecutive closed-loop windows of d each. Before each
// window, untimed, the never-repeated inputs it may send are rendered. A
// window that runs out of inputs ends early; it is still a valid
// measurement of the time it ran.
func measure(lr *loadRun, d time.Duration, n int) (phase, error) {
	var p phase
	var err error
	if p.before, err = lr.cl.scrape(); err != nil {
		return p, fmt.Errorf("scrape /metrics: %w", err)
	}
	runtime.GC()
	for i := 0; i < n && int(lr.pos.Load()) < len(lr.in.stream); i++ {
		ahead := int(float64(streamPerSec[lr.w.name]) * d.Seconds())
		if err := lr.in.prepare(lr.w.campaign, int(lr.pos.Load()), ahead); err != nil {
			return p, fmt.Errorf("render inputs: %w", err)
		}
		a := takeSample()
		res := lr.run(a.at, d)
		p.slices = append(p.slices, slice{res: res, a: a, b: takeSample()})
	}
	p.rssMB = maxRSSMB()
	if p.after, err = lr.cl.scrape(); err != nil {
		return p, fmt.Errorf("scrape /metrics: %w", err)
	}
	return p, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far (ru_maxrss is in
// KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}
