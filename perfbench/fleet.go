package main

import (
	"context"
	"time"

	"elinda"
	"elinda/internal/core"
)

// routedPerWrite is the number of chart queries sent through the router
// after each replicated write: the property chart of the written class,
// which shows the write, and two chart queries of the serve pool.
const routedPerWrite = 3

// fleetStats are the fleet phase's latency classes.
type fleetStats struct {
	replicate, routed series
	// replicateCPU is the process CPU time of each replication: the
	// coordinator's publication and both replicas' hydration.
	replicateCPU series
}

// fleetOp is one fleet operation: a single-triple write to the
// coordinator, both replicas synced, one router probe and the routed
// chart queries. It returns the queries sent and their answers.
func fleetOp(rig *fleetRig, w write, pool *servePool, st *fleetStats) ([]*query, [][]byte, error) {
	ctx := context.Background()
	d := elinda.DeltaOf(elinda.Insert(w.t))
	if w.del {
		d = elinda.DeltaOf(elinda.Delete(w.t))
	}
	if _, err := rig.coord.Apply(d); err != nil {
		return nil, nil, err
	}
	sw := startWatch()
	if err := rig.sync(ctx); err != nil {
		return nil, nil, err
	}
	sw.stop(&st.replicate, &st.replicateCPU)
	rig.router.ProbeNow(ctx)
	qs := []*query{{kind: qPropOut, class: w.class, text: core.PropertyExpansionSPARQL(w.class, false), vars: []string{"p", "count", "sp"}}}
	for len(qs) < routedPerWrite {
		qs = append(qs, pool.chartByZipf())
	}
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		t := time.Now()
		body, err := httpQuery(rig.client, rig.url, q.text)
		if err != nil {
			return nil, nil, err
		}
		st.routed.add(time.Since(t))
		bodies[i] = body
	}
	return qs, bodies, nil
}

// runFleet runs fleet operations until the phase's time is spent and
// every insert has its delete.
func runFleet(rig *fleetRig, ws *writeStream, pool *servePool, o *oracle, ph *phase, chk *checker) *fleetStats {
	st := &fleetStats{}
	ac := newAnswerCheck(o)
	for ph.more() || ws.n%2 == 1 {
		w := ws.next()
		var qs []*query
		var bodies [][]byte
		ph.op(func() (err error) {
			qs, bodies, err = fleetOp(rig, w, pool, st)
			return err
		})
		applyToOracle(o, w)
		want := rig.coord.Store.Generation()
		for i, r := range rig.replicas {
			if g := r.Generation(); g != want {
				chk.failf("fleet: replica %d serves generation %d, coordinator %d", i+1, g, want)
			}
		}
		for i, q := range qs {
			ac.check(chk, "fleet", q, bodies[i], false)
		}
	}
	return st
}
