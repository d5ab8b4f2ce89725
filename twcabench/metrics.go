package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what a caller of the service sees; an op is one
// verified analysis answer.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"rss_peak_mb", "MB"},
	{"exact_ratio", "ratio"},
}

// perLayerMetrics are named after the package whose public entry point
// the replay times, or whose /metrics counters they read.
var perLayerMetrics = []metricDef{
	{"service.handler_us", "us"},
	{"service.transport_us", "us"},
	{"service.decode_us", "us"},
	{"model.decode_us", "us"},
	{"model.hash_us", "us"},
	{"dsl.parse_us", "us"},
	{"store.lookup_us", "us"},
	{"store.hit_ratio", "ratio"},
	{"schema.encode_us", "us"},
	{"schema.doc_bytes", "B"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"segments.analyze_us", "us"},
	{"latency.analyze_us", "us"},
	{"latency.iterations_per_op", "count"},
	{"twca.construct_us", "us"},
	{"twca.combinations_per_op", "count"},
	{"ilp.solve_us", "us"},
	{"ilp.nodes_per_op", "count"},
	{"schema.assemble_us", "us"},
	{"service.relay_hop_us", "us"},
	{"service.relay_share", "ratio"},
	{"service.relay_retries_per_kop", "count"},
	{"service.hedges_per_kop", "count"},
	{"store.route_us", "us"},
	{"store.peer_hit_ratio", "ratio"},
	{"store.miss_ratio", "ratio"},
	{"sensitivity.query_us", "us"},
	{"sensitivity.probes_per_query", "count"},
	{"sensitivity.analyses_per_query", "count"},
	{"sensitivity.warm_hit_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("undefined metric " + name)
}

func set(out map[string]metric, defs []metricDef, name string, v float64) {
	out[name] = metric{Value: v, Unit: unitOf(defs, name)}
}

// endToEnd reports the untraced windows. Rates, per-op costs, p50 and
// p95 are medians over the one-second windows, so a burst of
// interference from outside the process moves one window, not the
// result. p95 is the gated tail: on a 2-vCPU VM, p99 moved 20-40%
// between identical runs as host preemptions came and went, so it is
// printed, pooled over every window, with the report instead.
func endToEnd(w io.Writer, out map[string]metric, p phase, v verdict, setup float64) {
	var all, thr, p50, p95, cpu, allocs, bytes []float64
	for _, s := range p.slices {
		var lat []float64
		for _, l := range s.res.logs {
			lat = append(lat, l.latMS...)
		}
		n := float64(len(lat))
		if n == 0 {
			continue
		}
		all = append(all, lat...)
		sort.Float64s(lat)
		thr = append(thr, n/s.b.at.Sub(s.a.at).Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p95 = append(p95, percentile(lat, 0.95))
		cpu = append(cpu, float64((s.b.cpu-s.a.cpu).Microseconds())/n)
		allocs = append(allocs, float64(s.b.mallocs-s.a.mallocs)/n)
		bytes = append(bytes, float64(s.b.allocBytes-s.a.allocBytes)/n)
	}
	sort.Float64s(all)
	fmt.Fprintf(w, "latency_ms samples=%d p50=%.4f p95=%.4f p99=%.4f p999=%.4f (pooled over %d windows)\n",
		len(all), percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99), percentile(all, 0.999), len(p50))
	e := func(name string, x float64) { set(out, endToEndMetrics, name, x) }
	e("setup_s", setup)
	e("throughput_ops_s", median(thr)*float64(v.ops-v.mismatched)/float64(v.ops))
	e("latency_p50_ms", median(p50))
	e("latency_p95_ms", median(p95))
	e("cpu_us_per_op", median(cpu))
	e("allocs_per_op", median(allocs))
	e("alloc_bytes_per_op", median(bytes))
	e("rss_peak_mb", p.rssMB)
	e("exact_ratio", 1-ratio(v.degraded, v.ops))
}

// perLayer runs the replay and derives every per-layer metric from its
// spans and from the /metrics deltas of the traced run's load phases.
func perLayer(out map[string]metric, cfg config, in *inputs, tr *tracer, phases []phase, v verdict) error {
	rp, err := newReplayer(tr)
	if err != nil {
		return fmt.Errorf("replay servers: %w", err)
	}
	n := min(replayOps[cfg.w.name], len(in.stream))
	for pos := 0; pos < n; pos++ {
		if err := rp.op(pos, in.queries[in.stream[pos]], cfg.w.campaign); err != nil {
			rp.close()
			return fmt.Errorf("replay op %d: %w", pos, err)
		}
	}
	rp.close()
	layers := aggregate(tr.spans)
	self := func(name string) float64 { return layers[name].meanSelfUS() }
	p50 := func(name string) float64 { return layers[name].p50US() }

	var opsU, opsT, opsAll int
	var secU, secT float64
	var gcs uint32
	for _, p := range phases {
		opsAll += p.ops()
		if p.traced {
			opsT += p.ops()
			secT += p.seconds()
		} else {
			opsU += p.ops()
			secU += p.seconds()
			for _, s := range p.slices {
				gcs += s.b.gcs - s.a.gcs
			}
		}
	}
	before, after := phases[0].before, phases[len(phases)-1].after
	d := func(series string) float64 { return delta(before, after, series) }
	cacheTotal := d(`twca_cache_requests_total{outcome="hit"}`) + d(`twca_cache_requests_total{outcome="miss"}`) +
		d(`twca_cache_requests_total{outcome="coalesced"}`) + d(`twca_cache_requests_total{outcome="peer"}`)
	share := func(x, total float64) float64 {
		if total == 0 {
			return 0
		}
		return x / total
	}
	perKop := func(x float64) float64 { return share(1000*x, float64(opsAll)) }
	warm := rp.warm.Stats()
	ops := float64(rp.ops)

	l := func(name string, x float64) { set(out, perLayerMetrics, name, x) }
	l("service.handler_us", p50("service.handler"))
	l("service.transport_us", p50("service.roundtrip")-p50("service.handler"))
	l("service.decode_us", self("service.decode"))
	l("model.decode_us", self("model.decode"))
	l("model.hash_us", self("model.hash"))
	l("dsl.parse_us", self("dsl.parse"))
	l("store.lookup_us", self("store.lookup"))
	l("store.hit_ratio", share(d(`twca_cache_requests_total{outcome="hit"}`), cacheTotal))
	l("schema.encode_us", self("schema.encode"))
	l("schema.doc_bytes", share(float64(rp.docBytes), float64(rp.docs)))
	l("runtime.gc_cycles_per_kop", share(1000*float64(gcs), float64(opsU)))
	l("segments.analyze_us", self("segments.analyze"))
	l("latency.analyze_us", self("latency.analyze"))
	l("latency.iterations_per_op", float64(rp.counts.Iterations)/ops)
	l("twca.construct_us", self("twca.construct"))
	l("twca.combinations_per_op", float64(rp.counts.Combinations)/ops)
	l("ilp.solve_us", self("ilp.solve"))
	l("ilp.nodes_per_op", float64(rp.counts.ILPNodes)/ops)
	l("schema.assemble_us", self("schema.assemble"))
	l("service.relay_hop_us", p50("service.relayed")-p50("service.local"))
	l("service.relay_share", share(float64(v.relayed), float64(v.ops)))
	l("service.relay_retries_per_kop", perKop(d("twca_fleet_relay_retries_total")))
	l("service.hedges_per_kop", perKop(d(`twca_fleet_relay_hedges_total{outcome="launched"}`)))
	l("store.route_us", self("store.route"))
	l("store.peer_hit_ratio", share(d(`twca_cache_requests_total{outcome="peer"}`), cacheTotal))
	l("store.miss_ratio", share(d(`twca_cache_requests_total{outcome="miss"}`), cacheTotal))
	l("sensitivity.query_us", self("sensitivity.query"))
	l("sensitivity.probes_per_query", share(float64(rp.counts.Probes), float64(rp.sensQ)))
	l("sensitivity.analyses_per_query", share(float64(rp.counts.Analyses), float64(rp.sensQ)))
	l("sensitivity.warm_hit_ratio", share(float64(warm.Hits), float64(warm.Hits+warm.Misses)))
	l("trace.overhead_ratio", share(float64(opsU)/secU, float64(opsT)/secT))

	var clientSpans []span
	for _, p := range phases {
		for _, lg := range p.logs() {
			clientSpans = append(clientSpans, lg.spans...)
		}
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl.gz", cfg.w.name, cfg.seed))
	return dumpSpans(path, tr.spans, clientSpans)
}
