package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/endpoint"
	"elinda/internal/hvs"
	"elinda/internal/ontology"
	"elinda/internal/proxy"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
	"elinda/internal/vfs"
	"elinda/internal/wal"
)

// tracedRun holds the state of the traced run: the same phases as the
// measured run, with each composite call replaced by the public calls it
// is made of, in the same order and with the same effects on state.
type tracedRun struct {
	cfg config
	tr  *tracer
	m   *layerMetrics
	chk *checker
	sys *elinda.System
	eng *sparql.Engine

	// query-tier samples shared by serve and update
	hvsLookup, parse, plan, tryDec, execLookup, execJoin, encode series
	rows, queryAlloc, bytesOut                                   []float64
	routes                                                       [3]int
	hits, lookups                                                int
	answerBytes                                                  map[string]int64
	// planPending is the last query the engine ran; its plan is timed
	// after the operation (planProbe).
	planPending string
}

// planProbe times Explain — parse plus plan, no execution — for the last
// query the engine ran, outside the operation, and books the plan time as
// Explain's time minus that query's parse time.
func (t *tracedRun) planProbe() {
	if t.planPending == "" {
		return
	}
	src := t.planPending
	t.planPending = ""
	d := t.tr.probe("sparql_explain", func() { t.eng.Explain(context.Background(), src) })
	parse := time.Duration(t.parse[len(t.parse)-1] * 1e6)
	if d > parse {
		t.plan.add(d - parse)
	}
}

// runTraced is the traced run: it reports the per-layer metrics.
func runTraced(cfg config) (*result, error) {
	in := makeInputs(cfg.seed, cfg.sc.persons, "upd")
	t := &tracedRun{cfg: cfg, tr: newTracer(), m: &layerMetrics{vals: map[string]metric{}}, chk: &checker{}, answerBytes: map[string]int64{}}
	if err := t.setup(in.g.nt); err != nil {
		return nil, err
	}
	lb, err := serveLoopback(t.sys.Endpoint())
	if err != nil {
		return nil, err
	}
	defer lb.close()
	client := newClient()
	defer client.CloseIdleConnections()

	phases := []*phase{
		{name: "explore", budget: cfg.budget("explore")},
		{name: "serve", budget: cfg.budget("serve")},
		{name: "update", budget: cfg.budget("update")},
		{name: "fleet", budget: cfg.budget("fleet")},
	}
	t.explore(in.o, phases[0])
	t.serve(client, lb.url, in.pool, in.o, phases[1])
	w, err := wal.Open("wal", wal.Options{FS: vfs.NewMem(), Policy: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	t.update(w, in.ws, in.o, phases[2])
	checkStoreEqualsOracle(t.chk, "traced update", t.sys, in.o)
	if err := t.growth(in); err != nil {
		return nil, err
	}
	fin := makeInputs(cfg.seed, cfg.sc.fleetPersons, "fleet")
	rig, err := openFleet(fin.g.nt, filepath.Join(cfg.workdir, "fleet"))
	if err != nil {
		return nil, err
	}
	defer rig.close()
	t.fleet(rig, fin.ws, fin.pool, fin.o, phases[3])

	perLayer, unattributed := t.tr.shares()
	for _, l := range layers {
		t.m.put(l+".self_share", "share", perLayer[l])
	}
	t.m.put("trace.unattributed_share", "share", unattributed)
	if len(t.m.empty) > 0 {
		return nil, fmt.Errorf("per-layer metrics without samples: %v", t.m.empty)
	}
	res := &result{Correct: t.chk.ok(), Metrics: t.m.vals}
	for _, p := range phases {
		res.Attempted += p.ops
		res.Failed += p.failed
		if p.lastErr != nil {
			cfg.info("phase %s: last error: %v", p.name, p.lastErr)
		}
		cfg.info("traced phase %-8s ops=%d busy=%.2fs ms/op=%.3f", p.name, p.ops, p.busy.Seconds(), float64(p.busy.Nanoseconds())/1e6/float64(p.ops))
	}
	for _, msg := range t.chk.msgs {
		cfg.info("CHECK FAILED: %s", msg)
	}
	printLayers(cfg.info, t.m.vals)
	path := filepath.Join(cfg.tracedir, fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := t.tr.write(path); err != nil {
		return nil, err
	}
	cfg.info("spans written to %s (%d spans)", path, len(t.tr.spans))
	return res, nil
}

// setup is elinda.OpenStream plus Warm, split into its layers: parse,
// load, ontology build, system assembly and the decomposer warm-up.
func (t *tracedRun) setup(nt []byte) error {
	var triples []rdf.Triple
	var err error
	t.m.put("rdf.parse_ms", "ms", ms(t.tr.do("rdf.parse", func() { triples, err = rdf.ReadNTriples(bytes.NewReader(nt)) })))
	if err != nil {
		return err
	}
	st := store.New(len(triples))
	t.m.put("store.load_ms", "ms", ms(t.tr.do("store.load", func() { _, err = st.Load(triples) })))
	if err != nil {
		return err
	}
	t.m.put("ontology.build_ms", "ms", ms(t.tr.probe("ontology_build", func() { ontology.Build(st) })))
	t.tr.do("core.assemble", func() { t.sys = elinda.NewSystemFromStore(st, proxyOptions()) })
	root := t.sys.Explorer.Hierarchy().Root()
	t.m.put("decomposer.warm_ms", "ms", ms(t.tr.do("decomposer.warm", func() { t.sys.Proxy.Decomposer().Warm(root) })))
	t.eng = sparql.NewEngine(st)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// explore runs the measured run's sessions with a span around each
// explorer call, and the ontology refresh each pane makes first timed on
// its own.
func (t *tracedRun) explore(o *oracle, ph *phase) {
	e := newExplorer(t.sys, o, t.cfg.seed)
	ex := t.sys.Explorer
	var subjects, bars, alloc, rounds []float64
	var final series
	n := 0
	h := walkHooks{
		call: func(kind string, depth, size int, f func() *core.Chart) *core.Chart {
			var c *core.Chart
			if kind == kindStream {
				n = 0
				final.add(t.tr.do("incremental."+kind, func() { c = f() }))
				rounds = append(rounds, float64(n))
				return c
			}
			if kind == kindSubclass {
				t.tr.do("ontology.hierarchy", func() { ex.Hierarchy() })
			}
			alloc = append(alloc, allocKB(func() { t.tr.do("core."+kind, func() { c = f() }) }))
			if c != nil {
				subjects = append(subjects, float64(size))
				bars = append(bars, float64(len(c.Bars)))
			}
			return c
		},
		partial: func() { n++ },
	}
	for ph.more() {
		var steps []step
		var stream *core.Chart
		var last *core.Pane
		ph.op(func() (err error) {
			t.tr.operation("explore", func() { steps, stream, last, err = e.session(h) })
			return err
		})
		if stream != nil {
			e.checkSession(steps, stream, last, t.chk)
		}
	}
	t.m.mean("core.subjects_per_chart", "count", subjects)
	t.m.mean("core.bars_per_chart", "count", bars)
	t.m.mean("core.alloc_kb_per_chart", "KB", alloc)
	t.m.mean("incremental.rounds_per_chart", "count", rounds)
	t.m.p50("incremental.final_chart_ms_p50", "ms", final, 1)
}

// query answers one query the way proxy.Proxy.QueryTraced does — HVS
// lookup, parse, decomposer, generic engine, HVS record — and encodes the
// answer the way the endpoint does.
func (t *tracedRun) query(q *query) ([]byte, error) {
	cache := t.sys.Proxy.HVS()
	var res *sparql.Result
	var err error
	t.tr.do("proxy.route", func() {
		gen := t.sys.Store.Generation()
		start := time.Now()
		var hit bool
		t.hvsLookup.add(t.tr.do("hvs.lookup", func() { res, hit = cache.Lookup(q.text, gen) }))
		t.lookups++
		if hit {
			t.hits++
			t.routes[0]++
			return
		}
		var pq *sparql.Query
		t.parse.add(t.tr.do("sparql.parse", func() { pq, err = sparql.Parse(q.text) }))
		if err != nil {
			return
		}
		var ok bool
		t.tryDec.add(t.tr.do("decomposer.try_execute", func() { res, ok = t.sys.Proxy.Decomposer().TryExecute(pq) }))
		if ok {
			t.routes[1]++
			t.tr.do("hvs.record", func() { cache.RecordFootprint(q.text, res, time.Since(start), gen, pq.Footprint()) })
			return
		}
		t.routes[2]++
		var d time.Duration
		kb := allocKB(func() { d = t.tr.do("sparql.execute", func() { res, err = t.eng.Execute(context.Background(), pq) }) })
		if err != nil {
			return
		}
		t.queryAlloc = append(t.queryAlloc, kb)
		t.rows = append(t.rows, float64(len(res.Rows)))
		switch {
		case q.kind == qLookup:
			t.execLookup.add(d)
		case q.kind.isJoin():
			t.execJoin.add(d)
		}
		t.tr.do("hvs.record", func() { cache.RecordFootprint(q.text, res, time.Since(start), gen, sparql.QueryFootprint(q.text)) })
		t.planPending = q.text
	})
	if err != nil {
		return nil, err
	}
	if _, seen := t.answerBytes[q.text]; !seen {
		t.answerBytes[q.text] = hvs.ResultBytes(res)
	}
	var body []byte
	t.encode.add(t.tr.do("endpoint.encode", func() { body, err = endpoint.MarshalResult(res) }))
	t.bytesOut = append(t.bytesOut, float64(len(body)))
	return body, err
}

// serve runs the serve mix in process through query, then measures the
// endpoint's own share on answers the cache holds: client latency minus
// the in-process proxy time and the encoding of the same answer.
func (t *tracedRun) serve(c *http.Client, base string, pool *servePool, o *oracle, ph *phase) {
	t.sys.Proxy.SetOptions(proxyOptionsBudget(serveCacheBytes))
	before := t.sys.Proxy.HVS().Stats()
	ac := newAnswerCheck(o)
	for i := 0; ph.more() || i%10 != 0; i++ {
		q := pool.next(i)
		var body []byte
		ph.op(func() (err error) {
			t.tr.operation("serve", func() { body, err = t.query(q) })
			return err
		})
		t.planProbe()
		if body != nil {
			ac.check(t.chk, "traced serve", q, body, true)
		}
	}
	after := t.sys.Proxy.HVS().Stats()
	var ws int64
	for _, b := range t.answerBytes {
		ws += b
	}
	t.m.p50("hvs.lookup_us_p50", "us", t.hvsLookup, 1e3)
	t.m.ratio("hvs.hit_ratio", "share", float64(t.hits), float64(t.lookups))
	t.m.put("hvs.evictions", "count", float64(after.Evictions-before.Evictions))
	t.m.put("hvs.bytes", "bytes", float64(after.Bytes))
	t.m.ratio("hvs.budget_share", "share", float64(serveCacheBytes), float64(ws))
	t.m.p50("sparql.parse_us_p50", "us", t.parse, 1e3)
	t.m.p50("sparql.plan_us_p50", "us", t.plan, 1e3)
	t.m.p50("sparql.execute_lookup_ms_p50", "ms", t.execLookup, 1)
	t.m.p50("sparql.execute_join_ms_p50", "ms", t.execJoin, 1)
	t.m.mean("sparql.result_rows_per_query", "count", t.rows)
	t.m.mean("sparql.alloc_kb_per_query", "KB", t.queryAlloc)
	t.m.p50("decomposer.try_us_p50", "us", t.tryDec, 1e3)
	t.m.put("proxy.route_hvs", "count", float64(t.routes[0]))
	t.m.put("proxy.route_decomposer", "count", float64(t.routes[1]))
	t.m.put("proxy.route_backend", "count", float64(t.routes[2]))
	_, ans, rej := t.sys.Proxy.Decomposer().Stats()
	t.m.put("decomposer.answers", "count", float64(ans))
	t.m.put("decomposer.rejects", "count", float64(rej))
	t.m.p50("endpoint.encode_us_p50", "us", t.encode, 1e3)
	t.m.mean("endpoint.bytes_per_query", "bytes", t.bytesOut)

	// Unattributed endpoint time, on the answers of the chart pool's head.
	var unattributed series
	ctx := context.Background()
	for i := 0; i < 50 && i < len(pool.charts); i++ {
		q := pool.charts[i]
		t.tr.probe("endpoint_unattributed", func() {
			if _, err := t.sys.Proxy.Query(ctx, q.text); err != nil {
				return
			}
			start := time.Now()
			if _, err := httpQuery(c, base, q.text); err != nil {
				return
			}
			client := time.Since(start)
			start = time.Now()
			res, err := t.sys.Proxy.Query(ctx, q.text)
			proxyTime := time.Since(start)
			if err != nil {
				return
			}
			start = time.Now()
			endpoint.MarshalResult(res)
			unattributed.add(client - proxyTime - time.Since(start))
		})
	}
	t.m.p50("endpoint.unattributed_us_p50", "us", unattributed, 1e3)
}

// update runs the write stream with proxy.Proxy.Update split into its
// calls — ParseUpdate, UpdateOps, the WAL append, Store.Apply and
// HVS.ApplyDelta — followed by the explorer chart and the chart query.
func (t *tracedRun) update(w *wal.WAL, ws *writeStream, o *oracle, ph *phase) {
	t.sys.Proxy.SetOptions(proxyOptions())
	cache := t.sys.Proxy.HVS()
	ex := t.sys.Explorer
	var parseU, opsU, ins, del, rebuild series
	var walBytes, retained, evicted []float64
	rebuilds, writes := 0, 0
	last := ex.Hierarchy()
	ac := newAnswerCheck(o)
	ctx := context.Background()
	for ph.more() || ws.n%2 == 1 {
		wr := ws.next()
		q := &query{kind: qPropOut, class: wr.class, text: core.PropertyExpansionSPARQL(wr.class, false), vars: []string{"p", "count", "sp"}}
		var body []byte
		var chart *core.Chart
		var res store.ApplyResult
		ph.op(func() (err error) {
			t.tr.operation("update", func() {
				var u *sparql.Update
				parseU.add(t.tr.do("sparql.parse_update", func() { u, err = sparql.ParseUpdate(wr.updateText()) }))
				if err != nil {
					return
				}
				var ops []rdf.TripleOp
				opsU.add(t.tr.do("sparql.update_ops", func() { ops, err = t.eng.UpdateOps(ctx, u) }))
				if err != nil {
					return
				}
				b0 := w.Stats().ActiveBytes
				t.tr.do("wal.append", func() { err = w.AppendOps(ops) })
				walBytes = append(walBytes, float64(w.Stats().ActiveBytes-b0))
				if err != nil {
					return
				}
				d := t.tr.do("store.apply", func() { res, err = t.sys.Store.Apply(store.DeltaOf(ops...)) })
				if err != nil {
					return
				}
				if wr.del {
					del.add(d)
				} else {
					ins.add(d)
				}
				if res.Changed() {
					dict := t.sys.Store.Dict()
					var dops []rdf.TripleOp
					for _, e := range res.NetInserts {
						dops = append(dops, rdf.Insert(dict.Decode(e)))
					}
					for _, e := range res.NetDeletes {
						dops = append(dops, rdf.Delete(dict.Decode(e)))
					}
					var r, e int
					t.tr.do("hvs.apply_delta", func() { r, e = cache.ApplyDelta(res.From, res.To, dops) })
					retained = append(retained, float64(r))
					evicted = append(evicted, float64(e))
				}
				writes++
				var h *ontology.Hierarchy
				d = t.tr.do("ontology.hierarchy", func() { h = ex.Hierarchy() })
				if h.Generation() != last.Generation() {
					rebuilds++
					rebuild.add(d)
				}
				last = h
				pane := ex.OpenPane(ont(readAfterWriteClass))
				t.tr.do("core.subclass_chart", func() { chart = pane.SubclassChart() })
				body, err = t.query(q)
			})
			return err
		})
		t.planProbe()
		applyToOracle(o, wr)
		if chart == nil || body == nil {
			continue
		}
		cid, _ := o.id(ont(readAfterWriteClass))
		checkCounts(t.chk, "traced update: read-after-write subclass chart", chart, o.subclassChart(cid), true)
		ac.check(t.chk, "traced update", q, body, false)
	}
	t.m.p50("sparql.parse_update_us_p50", "us", parseU, 1e3)
	t.m.p50("sparql.update_ops_us_p50", "us", opsU, 1e3)
	t.m.p50("store.apply_insert_ms_p50", "ms", ins, 1)
	t.m.p50("store.apply_delete_ms_p50", "ms", del, 1)
	t.m.mean("wal.bytes_per_write", "bytes", walBytes)
	t.m.mean("hvs.retained_per_write", "count", retained)
	t.m.mean("hvs.evicted_per_write", "count", evicted)
	t.m.ratio("ontology.rebuilds_per_write", "count", float64(rebuilds), float64(writes))
	t.m.p50("ontology.build_ms_after_write", "ms", rebuild, 1)
}

func proxyOptionsBudget(b int64) proxy.Options {
	o := proxyOptions()
	o.CacheMaxBytes = b
	return o
}

// growth replays the update write stream through System.Apply on the
// traced system and on a fresh one over a graph a quarter of the size,
// and reports how the median write and ontology build grow with the
// store: a cost proportional to the store reads about 4.
func (t *tracedRun) growth(in *inputs) error {
	small := makeGraph(t.cfg.seed, t.cfg.sc.persons/4)
	so := newOracle(small.triples)
	ssys, err := openSystem(small.nt)
	if err != nil {
		return err
	}
	measure := func(sys *elinda.System, o *oracle) (ins, del, build series, err error) {
		ws := newWriteStream(o, t.cfg.seed, "growth")
		for i := 0; i < growthWrites; i++ {
			w := ws.next()
			d := elinda.DeltaOf(elinda.Insert(w.t))
			if w.del {
				d = elinda.DeltaOf(elinda.Delete(w.t))
			}
			dur := t.tr.probe("growth_apply", func() { _, err = sys.Apply(d) })
			if err != nil {
				return
			}
			applyToOracle(o, w)
			if w.del {
				del.add(dur)
			} else {
				ins.add(dur)
			}
		}
		for i := 0; i < 5; i++ {
			build.add(t.tr.probe("growth_ontology_build", func() { ontology.Build(sys.Store) }))
		}
		return
	}
	insN, delN, buildN, err := measure(t.sys, in.o)
	if err != nil {
		return err
	}
	insQ, delQ, buildQ, err := measure(ssys, so)
	if err != nil {
		return err
	}
	checkStoreEqualsOracle(t.chk, "growth probe", ssys, so)
	t.m.put("store.delete_growth_4x", "ratio", delN.p50()/delQ.p50())
	t.m.put("store.insert_growth_4x", "ratio", insN.p50()/insQ.p50())
	t.m.put("ontology.build_growth_4x", "ratio", buildN.p50()/buildQ.p50())
	t.cfg.info("growth: delete %.3f/%.3f ms insert %.3f/%.3f ms ontology.Build %.3f/%.3f ms (n, n/4)",
		delN.p50(), delQ.p50(), insN.p50(), insQ.p50(), buildN.p50(), buildQ.p50())
	return nil
}

// growthWrites is the length of the replayed write stream at each size.
const growthWrites = 40

// fleet runs the fleet sequence with the coordinator's publication made
// explicit: the write, the publish (through /fleet/generation), each
// replica's sync, the router probe and the routed queries.
func (t *tracedRun) fleet(rig *fleetRig, ws *writeStream, pool *servePool, o *oracle, ph *phase) {
	ctx := context.Background()
	var publish, sync, open, overhead series
	r0, c0 := rig.router.MetricsSnapshot(), rig.co.MetricsSnapshot()
	ac := newAnswerCheck(o)
	writes := 0
	for ph.more() || ws.n%2 == 1 {
		w := ws.next()
		var qs []*query
		var bodies [][]byte
		ph.op(func() (err error) {
			t.tr.operation("fleet", func() {
				d := store.DeltaOf(rdf.Insert(w.t))
				if w.del {
					d = store.DeltaOf(rdf.Delete(w.t))
				}
				t.tr.do("store.apply", func() { _, err = rig.coord.Store.Apply(d) })
				if err != nil {
					return
				}
				writes++
				publish.add(t.tr.do("store.snapshot_write", func() { _, err = httpGet(rig.client, rig.coordURL+"/fleet/generation") }))
				if err != nil {
					return
				}
				for _, r := range rig.replicas {
					sync.add(t.tr.do("fleet.sync", func() { _, err = r.SyncOnce(ctx) }))
					if err != nil {
						return
					}
				}
				t.tr.do("router.probe", func() { rig.router.ProbeNow(ctx) })
				qs = []*query{{kind: qPropOut, class: w.class, text: core.PropertyExpansionSPARQL(w.class, false), vars: []string{"p", "count", "sp"}}}
				for len(qs) < routedPerWrite {
					qs = append(qs, pool.chartByZipf())
				}
				bodies = make([][]byte, len(qs))
				for i, q := range qs {
					t.tr.do("router.query", func() { bodies[i], err = httpQuery(rig.client, rig.url, q.text) })
					if err != nil {
						return
					}
				}
			})
			return err
		})
		applyToOracle(o, w)
		if bodies == nil || bodies[len(bodies)-1] == nil {
			continue
		}
		for i, q := range qs {
			ac.check(t.chk, "traced fleet", q, bodies[i], false)
		}
		// Hydration on its own: reopen the snapshot replica 1 installed.
		if path := newestSnapshot(filepath.Join(rig.dir, "replica1")); path != "" {
			open.add(t.tr.probe("store_open_snapshot", func() { store.OpenSnapshot(path) }))
		}
		// Router overhead on an answer both replicas hold: the routed
		// latency minus the mean direct latency of the same query.
		q := qs[0]
		t.tr.probe("router_overhead", func() {
			for _, u := range rig.repURL {
				httpQuery(rig.client, u, q.text)
			}
			start := time.Now()
			if _, err := httpQuery(rig.client, rig.url, q.text); err != nil {
				return
			}
			routed := time.Since(start)
			var direct time.Duration
			for _, u := range rig.repURL {
				start = time.Now()
				httpQuery(rig.client, u, q.text)
				direct += time.Since(start)
			}
			overhead.add(routed - direct/time.Duration(len(rig.repURL)))
		})
	}
	r1, c1 := rig.router.MetricsSnapshot(), rig.co.MetricsSnapshot()
	var routed uint64
	for i := range r1.Replicas {
		routed += r1.Replicas[i].Routed - r0.Replicas[i].Routed
	}
	t.m.p50("store.snapshot_write_ms", "ms", publish, 1)
	t.m.p50("store.snapshot_open_ms", "ms", open, 1)
	t.m.p50("fleet.sync_ms_p50", "ms", sync, 1)
	t.m.ratio("fleet.bytes_per_write", "bytes", float64(c1.SnapshotBytesSent-c0.SnapshotBytesSent), float64(writes*len(rig.replicas)))
	t.m.ratio("router.attempts_per_query", "count", float64(routed), float64(r1.Requests-r0.Requests))
	t.m.put("router.hedges", "count", float64(r1.Hedges-r0.Hedges))
	t.m.p50("router.overhead_us_p50", "us", overhead, 1e3)
}

// newestSnapshot returns the path of the highest-generation snapshot file
// in dir, or "" when there is none.
func newestSnapshot(dir string) string {
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.elindsn"))
	if err != nil || len(names) == 0 {
		return ""
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// httpGet fetches a URL and returns its body.
func httpGet(c *http.Client, u string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return roundTrip(c, req)
}
