package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// ledger is twcabench/ledger.json: what BENCHMARK.json has no keys for.
type ledger struct {
	About     string `json:"about"`
	Workloads []struct {
		Name     string `json:"name"`
		Loop     string `json:"loop"`
		Clients  int    `json:"clients"`
		Replicas int    `json:"replicas"`
	} `json:"workloads"`
	Layers []struct {
		Metric   string   `json:"metric"`
		Moves    []string `json:"moves"`
		Workload string   `json:"workload"`
		FlatOn   string   `json:"flat_on"`
		Note     string   `json:"note"`
	} `json:"layers"`
	Baseline json.RawMessage `json:"baseline"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestSpecMatchesProgram pins BENCHMARK.json and ledger.json to the
// metrics and workloads the program defines.
func TestSpecMatchesProgram(t *testing.T) {
	var s spec
	readJSON(t, "../BENCHMARK.json", &s)
	same := func(what string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEndMetrics)
	same("per_layer", s.PerLayer, perLayerMetrics)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q; the program %q: %q", i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
	}

	var l ledger
	readJSON(t, "ledger.json", &l)
	if len(l.Workloads) != len(workloads) {
		t.Fatalf("ledger lists %d workloads, the program %d", len(l.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if g := l.Workloads[i]; g.Name != w.name || g.Loop != "closed" || g.Clients != w.clients || g.Replicas != w.replicas {
			t.Errorf("ledger workload %d is %+v, the program's %s has %d clients on %d replicas", i, g, w.name, w.clients, w.replicas)
		}
	}
	layers := map[string]bool{}
	for _, e := range l.Layers {
		layers[e.Metric] = true
		if _, ok := findWorkload(e.Workload); !ok {
			t.Errorf("ledger: %s moves on unknown workload %q", e.Metric, e.Workload)
		}
		if _, ok := findWorkload(e.FlatOn); e.FlatOn != "" && !ok {
			t.Errorf("ledger: %s is flat on unknown workload %q", e.Metric, e.FlatOn)
		}
		for _, m := range e.Moves {
			unitOf(endToEndMetrics, m) // panics on an unknown metric
		}
	}
	for _, m := range perLayerMetrics {
		if !layers[m.name] {
			t.Errorf("ledger: no layer map entry for %s", m.name)
		}
	}
}

// runTiny runs one short workload and returns its output lines and
// result.
func runTiny(t *testing.T, name string, seed int64, trace bool) ([]string, *result) {
	t.Helper()
	w, _ := findWorkload(name)
	var out bytes.Buffer
	res, err := run(config{w: w, seed: seed, seconds: 1, trace: trace, spansDir: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || !last.Correct || last.Attempted < 1 {
		t.Fatalf("%s: oracle failed:\n%s", name, out.String())
	}
	return lines, &last
}

// TestEveryWorkloadTiny runs every workload briefly, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that every answer matched the oracle.
func TestEveryWorkloadTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	var s spec
	readJSON(t, "../BENCHMARK.json", &s)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			_, res := runTiny(t, w.name, 3, trace)
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v (present %t), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestSeedStable checks that a seed fixes the inputs and the work: two
// runs print the same input digest and work fingerprint, and another
// seed changes the digest.
func TestSeedStable(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	pick := func(lines []string) (digest, fp string) {
		for _, l := range lines {
			if strings.HasPrefix(l, "input_digest=") {
				digest = l
			}
			if strings.HasPrefix(l, "work_fingerprint ") {
				fp = l
			}
		}
		return digest, fp
	}
	for _, name := range []string{"cold-campaign", "fleet-mixed"} {
		a, _ := runTiny(t, name, 11, false)
		b, _ := runTiny(t, name, 11, false)
		c, _ := runTiny(t, name, 12, false)
		da, fa := pick(a)
		db, fb := pick(b)
		dc, _ := pick(c)
		if da == "" || fa == "" || da != db || fa != fb {
			t.Errorf("%s: seed 11 printed %q %q, then %q %q", name, da, fa, db, fb)
		}
		if da == dc {
			t.Errorf("%s: seeds 11 and 12 share the digest %q", name, da)
		}
	}
}
