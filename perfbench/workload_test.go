package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(res *result) []string {
	var names []string
	for k, m := range res.Metrics {
		names = append(names, k+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func toyConfig(t *testing.T) config {
	return config{
		workload: "toy",
		sc:       scales["toy"],
		seed:     7,
		seconds:  2,
		workdir:  t.TempDir(),
		tracedir: t.TempDir(),
		info:     t.Logf,
	}
}

// TestMeasuredRunToy runs the four phases at toy size: every output check
// passes, no operation fails, and the run reports exactly the end-to-end
// metrics BENCHMARK.json declares, none of them zero.
func TestMeasuredRunToy(t *testing.T) {
	res, err := runMeasured(toyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	got, want := reported(res), declared(t, "end_to_end")
	if len(got) != len(want) {
		t.Fatalf("reported %v\ndeclared %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reported %v\ndeclared %v", got, want)
		}
	}
	for k, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", k, m.Value)
		}
	}
}

// TestTracedRunToy runs the traced phases at toy size: checks pass, every
// per-layer figure has samples (runTraced fails otherwise) and the run
// reports exactly the per-layer metrics BENCHMARK.json declares.
func TestTracedRunToy(t *testing.T) {
	res, err := runTraced(toyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	got, want := reported(res), declared(t, "per_layer")
	if len(got) != len(want) {
		t.Fatalf("reported %d metrics %v\ndeclared %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("metric %d: reported %q, declared %q", i, got[i], want[i])
		}
	}
	total := res.Metrics["trace.unattributed_share"].Value
	for _, l := range layers {
		total += res.Metrics[l+".self_share"].Value
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("layer shares and the unattributed share add up to %v, want 1", total)
	}
}

// TestSystemHeapExcludesFleetInputs checks that heap_mb's system part is
// read before the fleet's graph, oracle and streams exist: a fleet graph
// ten times larger must not raise it.
func TestSystemHeapExcludesFleetInputs(t *testing.T) {
	heap := func(fleetPersons int) float64 {
		cfg := toyConfig(t)
		cfg.sc.fleetPersons = fleetPersons
		res, err := runMeasured(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.systemHeapMB
	}
	small, large := heap(150), heap(1500)
	// The larger fleet's inputs take about 10 MB; the system part moves
	// by well under 1 MB with the number of writes a run makes.
	if large > small+2 {
		t.Errorf("system heap %.2f MB with the larger fleet graph, %.2f MB with the smaller", large, small)
	}
}
