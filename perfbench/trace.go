package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// layers are the program's modules the traced run attributes time to.
var layers = []string{
	"rdf", "store", "wal", "ontology", "core", "incremental", "decomposer",
	"hvs", "sparql", "proxy", "endpoint", "fleet", "router",
}

// span is one timed call of the traced run. Its name is "<layer>.<call>";
// the spans of one operation nest under the operation's root span, named
// "op.<phase>", whose self time is the operation's unattributed time.
// Probe spans ("probe.<what>") time extra calls made only to read a
// figure; they sit outside every operation and count to no layer.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps every span in memory; they are written out when the run
// ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (tr *tracer) begin(name string) int {
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	tr.spans = append(tr.spans, span{Name: name, Start: time.Since(tr.t0), Parent: parent, Op: tr.op})
	id := len(tr.spans) - 1
	tr.stack = append(tr.stack, id)
	return id
}

func (tr *tracer) end(id int) time.Duration {
	tr.spans[id].End = time.Since(tr.t0)
	tr.stack = tr.stack[:len(tr.stack)-1]
	return tr.spans[id].End - tr.spans[id].Start
}

// do runs f inside a span and returns the span's duration.
func (tr *tracer) do(name string, f func()) time.Duration {
	id := tr.begin(name)
	f()
	return tr.end(id)
}

// operation runs one operation of a phase under a fresh root span.
func (tr *tracer) operation(phase string, f func()) {
	tr.op++
	tr.do("op."+phase, f)
}

// probe runs an extra measurement outside every operation.
func (tr *tracer) probe(name string, f func()) time.Duration {
	op := tr.op
	tr.op = -1
	d := tr.do("probe."+name, f)
	tr.op = op
	return d
}

// shares attributes the time of all operations: each layer's self time
// (its spans' time minus their children's) and the operations' own
// unattributed time, as shares of the operations' total.
func (tr *tracer) shares() (perLayer map[string]float64, unattributed float64) {
	self := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	perLayer = map[string]float64{}
	var total time.Duration
	byLayer := map[string]time.Duration{}
	for i, s := range tr.spans {
		if s.Op < 0 {
			continue
		}
		if s.Parent < 0 {
			total += s.End - s.Start
		}
		byLayer[s.layer()] += self[i]
	}
	for _, l := range layers {
		perLayer[l] = float64(byLayer[l]) / float64(total)
	}
	return perLayer, float64(byLayer["op"]) / float64(total)
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// allocKB runs f and returns the bytes it allocated, in KB. Only the
// calling goroutine runs during the traced calls it wraps, so the
// TotalAlloc delta is that call's.
func allocKB(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e3
}

// layerMetrics gathers the traced run's figures by name. A figure whose
// operations produced no samples is not given a value: its name goes to
// empty, and the run fails rather than report it as 0.
type layerMetrics struct {
	vals  map[string]metric
	empty []string
}

func (m *layerMetrics) put(name, unit string, v float64) { m.vals[name] = metric{Value: v, Unit: unit} }

func (m *layerMetrics) p50(name, unit string, s series, scale float64) {
	if len(s) == 0 {
		m.empty = append(m.empty, name)
		return
	}
	m.put(name, unit, s.p50()*scale)
}

func (m *layerMetrics) mean(name, unit string, vs []float64) {
	if len(vs) == 0 {
		m.empty = append(m.empty, name)
		return
	}
	t := 0.0
	for _, v := range vs {
		t += v
	}
	m.put(name, unit, t/float64(len(vs)))
}

func (m *layerMetrics) ratio(name, unit string, a, b float64) {
	if b == 0 {
		m.empty = append(m.empty, name)
		return
	}
	m.put(name, unit, a/b)
}

// printLayers prints the per-layer figures in name order.
func printLayers(info func(string, ...any), m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		info("layer %-34s %14.4f %s", k, m[k].Value, m[k].Unit)
	}
}
