package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"elinda"
	"elinda/internal/proxy"
)

// serveCacheBytes is the serve phase's HVS byte budget: about half
// of the ~320 KB the answers of the chart-query pool take at either size
// (hvs.ResultBytes), before lookups and joins add theirs. It is below the
// working set, so LRU eviction runs.
const serveCacheBytes = 160_000

// inputs is one graph and everything generated from it with the seed,
// before any timing: the oracle, the serve pool and the write stream.
type inputs struct {
	g    *graph
	o    *oracle
	pool *servePool
	ws   *writeStream
}

func makeInputs(seed int64, persons int, tag string) *inputs {
	g := makeGraph(seed, persons)
	o := newOracle(g.triples)
	return &inputs{g: g, o: o, pool: newServePool(o, seed), ws: newWriteStream(o, seed, tag)}
}

// setups is how many times each set-up is repeated; setup_s adds up the
// medians of their CPU times.
const setups = 5

// setUp times a set-up setups times, in wall and in process CPU time,
// keeping the last result and closing the others.
func setUp[T any](open func(i int) (T, error), close func(T)) (T, series, series, error) {
	var last T
	var times, cpu series
	for i := 0; i < setups; i++ {
		if i > 0 {
			close(last)
		}
		var zero T
		last = zero
		runtime.GC()
		sw := startWatch()
		v, err := open(i)
		if err != nil {
			return zero, nil, nil, err
		}
		sw.stop(&times, &cpu)
		last = v
	}
	return last, times, cpu, nil
}

// runMeasured is the untraced run: it reports the end-to-end metrics.
func runMeasured(cfg config) (*result, error) {
	start := time.Now()
	stage := func(what string) { cfg.info("t=%5.1fs %s", time.Since(start).Seconds(), what) }
	in := makeInputs(cfg.seed, cfg.sc.persons, "upd")
	stage("inputs generated")
	sys, sysSetup, sysSetupCPU, err := setUp(func(int) (*elinda.System, error) { return openSystem(in.g.nt) }, func(*elinda.System) {})
	if err != nil {
		return nil, err
	}
	// The generated triples and bytes are not needed past set-up; the
	// oracle keeps its own copy of the graph.
	in.g = nil
	lb, err := serveLoopback(sys.Endpoint())
	if err != nil {
		return nil, err
	}
	defer func() {
		if lb != nil {
			lb.close()
		}
	}()
	client := newClient()
	chk := &checker{}

	stage("system set up")
	ex := &phase{name: "explore", budget: cfg.budget("explore")}
	runtime.GC()
	est := runExplore(sys, in.o, cfg.seed, ex, chk)

	stage("explore done")
	sv := &phase{name: "serve", budget: cfg.budget("serve")}
	sys.Proxy.SetOptions(proxy.Options{HeavyThreshold: heavyEverything, CacheMaxBytes: serveCacheBytes})
	runtime.GC()
	sst := runServe(client, lb.url, in.pool, in.o, sv, chk)
	hs := sys.Proxy.HVS().Stats()
	cfg.info("serve HVS: hits=%d misses=%d evictions=%d bytes=%d budget=%d", hs.Hits, hs.Misses, hs.Evictions, hs.Bytes, serveCacheBytes)

	stage("serve done")
	up := &phase{name: "update", budget: cfg.budget("update")}
	sys.Proxy.SetOptions(proxyOptions())
	if _, err := attachMemWAL(sys); err != nil {
		return nil, err
	}
	runtime.GC()
	ust := runUpdate(sys, client, lb.url, in.ws, in.o, up, chk)
	checkStoreEqualsOracle(chk, "update", sys, in.o)
	stage("update done and checked")
	in = nil

	// The system's live heap, measured with the benchmark's inputs and
	// oracle dropped and the fleet's not made yet. The system then leaves
	// the heap, and the fleet is set up only now: each part's figures are
	// taken without the other's stores for the collector to mark.
	lb.close()
	lb = nil
	client.CloseIdleConnections()
	sysHeap := liveHeapMB()
	runtime.KeepAlive(sys)
	sys = nil
	fin := makeInputs(cfg.seed, cfg.sc.fleetPersons, "fleet")
	stage("fleet inputs generated")
	rig, fleetSetup, fleetSetupCPU, err := setUp(func(i int) (*fleetRig, error) {
		return openFleet(fin.g.nt, filepath.Join(cfg.workdir, fmt.Sprint("fleet", i)))
	}, (*fleetRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	fin.g = nil
	stage("fleet set up")
	fl := &phase{name: "fleet", budget: cfg.budget("fleet")}
	runtime.GC()
	fst := runFleet(rig, fin.ws, fin.pool, fin.o, fl, chk)
	stage("fleet done")
	checkStoreEqualsOracle(chk, "fleet coordinator", rig.coord, fin.o)
	client.CloseIdleConnections()

	phases := []*phase{ex, sv, up, fl}
	res := &result{Correct: chk.ok(), Metrics: map[string]metric{}, systemHeapMB: sysHeap}
	for _, p := range phases {
		res.Attempted += p.ops
		res.Failed += p.failed
		if p.lastErr != nil {
			cfg.info("phase %s: last error: %v", p.name, p.lastErr)
		}
		cfg.info("phase %-8s ops=%d failed=%d busy=%.2fs ops/s=%.2f cpu_ms/op=%.3f", p.name, p.ops, p.failed, p.busy.Seconds(), p.opsPerSec(), p.cpuMsPerOp())
	}
	for _, m := range chk.msgs {
		cfg.info("CHECK FAILED: %s", m)
	}

	// The fleet's live heap, the benchmark's inputs and oracle dropped.
	fin = nil
	fleetHeap := liveHeapMB()
	runtime.KeepAlive(rig)

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	ref := func(name string, s series) {
		cfg.info("%-36s p50=%.4f%s n=%d", name, s.p50(), s.tails(), len(s))
	}
	lat := func(name string, s series) {
		put(name, "ms", s.p50())
		ref("latency "+name, s)
	}
	// Set-up is timed in process CPU seconds, like the operations that
	// run for milliseconds below: their wall time carries the hypervisor's
	// steal, which moved it by up to 45% between runs of identical code
	// (README, "Wall time and CPU time").
	put("setup_s", "s", (sysSetupCPU.p50()+fleetSetupCPU.p50())/1000)
	put("heap_mb", "MB", sysHeap+fleetHeap)
	for _, p := range phases {
		put(p.name+"_cpu_ms_per_op", "ms", p.cpuMsPerOp())
	}
	lat("subclass_chart_cpu_ms_p50", est.subclassCPU)
	lat("property_chart_cpu_ms_p50", est.propertyCPU)
	lat("object_chart_cpu_ms_p50", est.objectCPU)
	lat("chart_query_ms_p50", sst.chart)
	lat("lookup_query_ms_p50", sst.lookup)
	lat("join_query_ms_p50", sst.join)
	lat("insert_cpu_ms_p50", ust.insertCPU)
	lat("delete_cpu_ms_p50", ust.deleteCPU)
	lat("read_after_write_cpu_ms_p50", ust.readAfterWriteCPU)
	lat("replicate_cpu_ms_p50", fst.replicateCPU)
	// The wall-clock figures of the same operations, printed for
	// reference, not reported.
	for _, c := range []struct {
		name string
		s    series
	}{
		{"explore.session", est.session}, {"explore.subclass_chart", est.subclass}, {"explore.property_chart", est.property},
		{"explore.object_chart", est.object}, {"explore.first_chart", est.first},
		{"update.insert", ust.insert}, {"update.delete", ust.delete}, {"update.read_after_write", ust.readAfterWrite},
		{"update.chart_query", ust.chart}, {"fleet.replicate", fst.replicate}, {"fleet.routed_query", fst.routed},
	} {
		ref("reference "+c.name, c.s)
	}
	cfg.info("setup: system p50 %.3f s wall, %.3f s CPU; fleet p50 %.3f s wall, %.3f s CPU; live heap: system %.1f MB, fleet %.1f MB",
		sysSetup.p50()/1000, sysSetupCPU.p50()/1000, fleetSetup.p50()/1000, fleetSetupCPU.p50()/1000, sysHeap, fleetHeap)
	return res, nil
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
