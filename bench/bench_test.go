package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the runs must honour.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkJSON checks that BENCHMARK.json names exactly
// the workloads and metrics this program implements, with their units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	same := func(kind string, defs []metricDef, got map[string]string) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(defs))
		}
		for _, d := range defs {
			if u, ok := got[d.name]; !ok || u != d.unit {
				t.Errorf("%s metric %s (%s): BENCHMARK.json has unit %q", kind, d.name, d.unit, u)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	same("end_to_end", endToEnd, e2e)
	same("per_layer", perLayer, layer)
}

// TestSmoke runs every workload for two seconds with tracing on and checks
// that the outputs are correct, no operation failed, every metric is
// reported with its unit, and the spans were written.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds queued and runs every workload")
	}
	b := readBenchmarkJSON(t)
	work := t.TempDir()
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			o := options{
				workload: name, seed: 7, window: 2 * time.Second, trace: true,
				root: "..", work: work,
			}
			rep, err := execute(context.Background(), o, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range rep.errs {
				t.Errorf("check failed: %v", e)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%d operations attempted, %d failed", rep.attempted, rep.failed)
			}
			for _, traced := range []bool{false, true} {
				res, err := rep.result(traced)
				if err != nil {
					t.Fatal(err)
				}
				want := len(b.EndToEnd)
				if traced {
					want = len(b.PerLayer)
				}
				if len(res.Metrics) != want {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", traced, len(res.Metrics), want)
				}
			}
			for _, m := range b.EndToEnd {
				if v := rep.e2e[m.Name]; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want a positive measurement", m.Name, v)
				}
			}
			if fi, err := os.Stat(o.tracePath()); err != nil || fi.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
		})
	}
}
