package main

import (
	"encoding/json"

	"net/http"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/rdf"
	"elinda/internal/vfs"
	"elinda/internal/wal"
)

// updateStats are the update phase's latency classes.
type updateStats struct {
	insert, delete, readAfterWrite, chart series
	// The same operations' process CPU time.
	insertCPU, deleteCPU, readAfterWriteCPU series
}

// readAfterWriteClass is the pane whose subclass chart is the first
// explorer read after every write.
const readAfterWriteClass = "Person"

// attachMemWAL puts the store in write-ahead-logged mode with every
// append synced, on the in-memory filesystem: the WAL code runs in full
// while the sandbox disk's fsync stays out of the figures.
func attachMemWAL(sys *elinda.System) (*wal.WAL, error) {
	w, err := wal.Open("wal", wal.Options{FS: vfs.NewMem(), Policy: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	sys.Store.AttachWAL(w)
	return w, nil
}

// applyToOracle mirrors a write in the oracle and reports whether it
// changed the graph.
func applyToOracle(o *oracle, w write) bool {
	if w.del {
		return o.remove(w.t)
	}
	return o.insert(w.t)
}

// runUpdate sends single-triple writes over HTTP, each followed by one
// explorer chart and one chart query, until the phase's time is spent and
// every insert has its delete.
func runUpdate(sys *elinda.System, c *http.Client, base string, ws *writeStream, o *oracle, ph *phase, chk *checker) *updateStats {
	st := &updateStats{}
	ac := newAnswerCheck(o)
	for ph.more() || ws.n%2 == 1 {
		w := ws.next()
		q := &query{kind: qPropOut, class: w.class, text: core.PropertyExpansionSPARQL(w.class, false), vars: []string{"p", "count", "sp"}}
		var ack, body []byte
		var chart *core.Chart
		ph.op(func() (err error) {
			sw := startWatch()
			if ack, err = httpUpdate(c, base, w.updateText()); err != nil {
				return err
			}
			if w.del {
				sw.stop(&st.delete, &st.deleteCPU)
			} else {
				sw.stop(&st.insert, &st.insertCPU)
			}
			sw = startWatch()
			chart = sys.Explorer.OpenPane(ont(readAfterWriteClass)).SubclassChart()
			sw.stop(&st.readAfterWrite, &st.readAfterWriteCPU)
			t := time.Now()
			body, err = httpQuery(c, base, q.text)
			st.chart.add(time.Since(t))
			return err
		})
		changed := applyToOracle(o, w)
		if ack == nil || body == nil {
			continue
		}
		checkAck(chk, w, ack, changed)
		cid, _ := o.id(ont(readAfterWriteClass))
		checkCounts(chk, "update: read-after-write subclass chart", chart, o.subclassChart(cid), true)
		ac.check(chk, "update", q, body, false)
	}
	return st
}

// checkAck checks the write acknowledgement: one triple changed.
func checkAck(chk *checker, w write, ack []byte, changed bool) {
	var st struct {
		Inserted, Deleted int
	}
	if err := json.Unmarshal(ack, &st); err != nil {
		chk.failf("update: acknowledgement %q: %v", ack, err)
		return
	}
	want := 0
	if changed {
		want = 1
	}
	got := st.Inserted
	if w.del {
		got = st.Deleted
	}
	if got != want {
		chk.failf("update: %s changed %d triples, oracle %d", w.updateText(), got, want)
	}
}

// checkStoreEqualsOracle checks that the store holds exactly the oracle's
// triples: the base graph with the inserts added and the deletes removed.
func checkStoreEqualsOracle(chk *checker, what string, sys *elinda.System, o *oracle) {
	snap := sys.Store.Snapshot()
	n, missing := 0, 0
	var example rdf.Triple
	snap.Scan(0, 0, func(e rdf.EncodedTriple) bool {
		n++
		if t := snap.Triple(e); !o.has(t) {
			if missing == 0 {
				example = t
			}
			missing++
		}
		return true
	})
	if missing > 0 || n != o.len() {
		chk.failf("%s: store holds %d triples (%d not in the oracle, e.g. %s), oracle %d", what, n, missing, example, o.len())
	}
}
