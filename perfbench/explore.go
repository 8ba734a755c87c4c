package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"elinda"
	"elinda/internal/core"
	"elinda/internal/incremental"
	"elinda/internal/rdf"
)

// checker collects output checks that failed. Checks run outside the
// timed sections.
type checker struct {
	failures int
	msgs     []string
}

func (c *checker) failf(format string, args ...any) {
	c.failures++
	if len(c.msgs) < 10 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return c.failures == 0 }

// exploreStats are the explore phase's latency classes. The three
// chart kinds and the session are medians over one class each: the chart
// kinds are timed on the pane every session opens (owl:Thing), whose
// charts cost the same in every session, in wall time and in process CPU
// time.
type exploreStats struct {
	session, subclass, property, object, first series
	subclassCPU, propertyCPU, objectCPU        series
}

// step is one pane of a session, kept for checking after the session.
type step struct {
	class    rdf.Term
	size     int
	sub, out *core.Chart
	in       *core.Chart
	prop     rdf.Term
	obj      *core.Chart
}

// explorer drives the explore phase: seeded random walks from
// owl:Thing through core.Explorer and core.Pane, the calls the server's
// /api/chart and /api/connections handlers make.
type explorer struct {
	ex    *core.Explorer
	o     *oracle
	rng   *rand.Rand
	decks map[string]*deck // the walk's choices, by pane and kind of choice
	memo  map[string]any   // oracle answers by pane and chart; the graph does not change
}

func newExplorer(sys *elinda.System, o *oracle, seed int64) *explorer {
	return &explorer{ex: sys.Explorer, o: o, rng: rand.New(rand.NewSource(seed ^ 0xe8b1)), decks: map[string]*deck{}, memo: map[string]any{}}
}

// deck is one choice the walk makes at a pane, dealt from a seeded
// shuffle of its n options and reshuffled when every option has been
// dealt.
type deck struct {
	order []int
	next  int
}

// pick returns the next of n options of the choice key. Every option of a
// pane is taken equally often, in a seeded order: the mix of panes and
// charts a run walks is the same for every seed, and only their order
// changes. Charts of different panes and properties cost from 40 µs to
// 80 ms, so a mix drawn independently at each step would move the
// phase's cost per session with the seed.
func (e *explorer) pick(key string, n int) int {
	d := e.decks[key]
	if d == nil {
		d = &deck{order: make([]int, n)}
		for i := range d.order {
			d.order[i] = i
		}
		d.next = n
		e.decks[key] = d
	}
	if d.next == n {
		e.rng.Shuffle(n, func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.next = 0
	}
	d.next++
	return d.order[d.next-1]
}

// maxDepth bounds a walk; the generated hierarchy is four levels deep.
const maxDepth = 8

// The kinds of explorer call a session makes, as walkHooks.call sees them.
const (
	kindSubclass   = "subclass_chart"
	kindProperty   = "property_chart"
	kindPropertyIn = "property_chart_in"
	kindObject     = "object_chart"
	kindStream     = "stream_property_chart"
)

// walkHooks let a caller time the calls of a session. call runs one
// explorer call f of the given kind on a pane at depth (owl:Thing is 0)
// with size instances, and returns its chart; partial is called on each
// partial chart of the session's streaming chart. The measured run books
// latencies through them, the traced run opens spans.
type walkHooks struct {
	call    func(kind string, depth, size int, f func() *core.Chart) *core.Chart
	partial func()
}

// session runs one exploration session: a seeded walk from owl:Thing
// that draws each pane's charts and drills into a non-empty subclass bar,
// then one streaming property chart on the pane it ends at. It returns
// the panes walked, the streamed chart and the last pane.
func (e *explorer) session(h walkHooks) (steps []step, stream *core.Chart, last *core.Pane, err error) {
	pane := e.ex.OpenRootPane()
	for depth := 0; ; depth++ {
		s := step{class: pane.Bar().Label, size: len(pane.Set())}
		s.sub = h.call(kindSubclass, depth, s.size, pane.SubclassChart)
		s.out = h.call(kindProperty, depth, s.size, func() *core.Chart { return pane.PropertyChart(false, 0) })
		s.in = h.call(kindPropertyIn, depth, s.size, func() *core.Chart { return pane.PropertyChart(true, 0) })
		if len(s.out.Bars) > 0 {
			s.prop = s.out.Bars[e.pick("property "+s.class.String(), len(s.out.Bars))].Bar.Label
			s.obj = h.call(kindObject, depth, s.size, func() *core.Chart {
				var c *core.Chart
				c, err = pane.ConnectionsChart(s.prop, false)
				return c
			})
			if err != nil {
				return nil, nil, nil, err
			}
		}
		steps = append(steps, s)
		var next []rdf.Term
		for _, b := range s.sub.Bars {
			if b.Count > 0 {
				next = append(next, b.Bar.Label)
			}
		}
		if len(next) == 0 || depth == maxDepth {
			break
		}
		pane = e.ex.OpenPane(next[e.pick("subclass "+s.class.String(), len(next))])
	}
	stream = h.call(kindStream, len(steps)-1, len(pane.Set()), func() *core.Chart {
		var c *core.Chart
		c, err = pane.StreamPropertyChart(context.Background(), false, core.IncrementalOptions{},
			func(*core.Chart, incremental.Snapshot) bool { h.partial(); return true })
		return c
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return steps, stream, pane, nil
}

// hooks times the calls the explore latencies are made of: the three
// chart kinds on the pane every session opens (owl:Thing), whose charts
// cost the same in every session, and the time to the streaming chart's
// first partial chart.
func (st *exploreStats) hooks() walkHooks {
	var streamStart time.Time
	waiting := false
	return walkHooks{
		call: func(kind string, depth, size int, f func() *core.Chart) *core.Chart {
			sw := startWatch()
			if kind == kindStream {
				streamStart, waiting = sw.t, true
			}
			c := f()
			if depth == 0 {
				switch kind {
				case kindSubclass:
					sw.stop(&st.subclass, &st.subclassCPU)
				case kindProperty:
					sw.stop(&st.property, &st.propertyCPU)
				case kindObject:
					sw.stop(&st.object, &st.objectCPU)
				}
			}
			return c
		},
		partial: func() {
			if waiting {
				st.first.add(time.Since(streamStart))
				waiting = false
			}
		},
	}
}

// runExplore runs sessions until the phase's time is spent.
func runExplore(sys *elinda.System, o *oracle, seed int64, ph *phase, chk *checker) *exploreStats {
	e := newExplorer(sys, o, seed)
	st := &exploreStats{}
	h := st.hooks()
	for ph.more() {
		var steps []step
		var stream *core.Chart
		var last *core.Pane
		var d time.Duration
		ph.op(func() (err error) {
			t := time.Now()
			steps, stream, last, err = e.session(h)
			d = time.Since(t)
			return err
		})
		if stream == nil {
			continue
		}
		st.session.add(d)
		e.checkSession(steps, stream, last, chk)
	}
	return st
}

// checkSession checks every chart of a session against the oracle, and
// the streamed chart against the one-shot chart of the same pane,
// computed here, outside the timed session.
func (e *explorer) checkSession(steps []step, stream *core.Chart, last *core.Pane, chk *checker) {
	for _, s := range steps {
		e.check(s, chk)
	}
	e.checkStream(stream, last.PropertyChart(false, -1), chk)
}

func (e *explorer) oracleClass(c rdf.Term) (int32, bool) { return e.o.id(c) }

func (e *explorer) memoized(key string, f func() any) any {
	if v, ok := e.memo[key]; ok {
		return v
	}
	v := f()
	e.memo[key] = v
	return v
}

// check compares every chart of a pane with the oracle.
func (e *explorer) check(s step, chk *checker) {
	cid, ok := e.oracleClass(s.class)
	if !ok {
		chk.failf("explore: pane class %s unknown to the oracle", s.class)
		return
	}
	name := canonTerm(s.class)
	size := e.memoized("size "+name, func() any { return len(e.o.instances(cid)) }).(int)
	if s.size != size {
		chk.failf("explore: pane %s has %d instances, oracle %d", name, s.size, size)
	}
	want := e.memoized("sub "+name, func() any { return e.o.subclassChart(cid) }).(counts)
	checkCounts(chk, "subclass chart of "+name, s.sub, want, true)
	for _, in := range []bool{false, true} {
		c := s.out
		if in {
			c = s.in
		}
		stats := e.memoized(fmt.Sprintf("prop %v %s", in, name), func() any { return e.o.propertyChart(cid, in) }).(map[string]propStat)
		checkProperty(chk, fmt.Sprintf("property chart (incoming=%v) of %s", in, name), c, stats, size, core.DefaultCoverageThreshold)
	}
	if s.obj != nil {
		pid, _ := e.o.id(s.prop)
		want := e.memoized("obj "+name+" "+canonTerm(s.prop), func() any { return e.o.objectChart(cid, pid, false) }).(counts)
		checkCounts(chk, "object chart of "+name+" via "+canonTerm(s.prop), s.obj, want, false)
	}
}

// checkStream checks that the final chart of the incremental evaluation
// equals the one-shot chart, and both the oracle's raw property chart.
func (e *explorer) checkStream(stream, oneShot *core.Chart, chk *checker) {
	if len(stream.Bars) != len(oneShot.Bars) {
		chk.failf("explore: streamed property chart has %d bars, one-shot %d", len(stream.Bars), len(oneShot.Bars))
		return
	}
	for i := range stream.Bars {
		a, b := stream.Bars[i], oneShot.Bars[i]
		if a.Bar.Label != b.Bar.Label || a.Count != b.Count || a.Triples != b.Triples {
			chk.failf("explore: streamed bar %d %s=%d/%d, one-shot %s=%d/%d", i, a.LabelText, a.Count, a.Triples, b.LabelText, b.Count, b.Triples)
			return
		}
	}
	cid, ok := e.oracleClass(stream.SourceLabel)
	if !ok {
		chk.failf("explore: streamed pane %s unknown to the oracle", stream.SourceLabel)
		return
	}
	name := canonTerm(stream.SourceLabel)
	stats := e.memoized("prop false "+name, func() any { return e.o.propertyChart(cid, false) }).(map[string]propStat)
	checkProperty(chk, "streamed property chart of "+name, stream, stats, stream.SourceSize, -1)
}

// checkCounts compares a chart's bar heights with the oracle's. Zero
// counts are compared only when the chart lists empty bars too.
func checkCounts(chk *checker, what string, c *core.Chart, want counts, withZeros bool) {
	got := counts{}
	for _, b := range c.Bars {
		got[canonTerm(b.Bar.Label)] = b.Count
	}
	for k, n := range want {
		if n == 0 && !withZeros {
			continue
		}
		if g, ok := got[k]; !ok || g != n {
			chk.failf("%s: bar %s = %d (present %v), oracle %d", what, k, g, ok, n)
			return
		}
	}
	for k, g := range got {
		if n := want[k]; n != g {
			chk.failf("%s: bar %s = %d, oracle %d", what, k, g, n)
			return
		}
	}
}

// checkProperty compares a property chart with the oracle's statistics,
// keeping only bars at or above the coverage threshold (none dropped when
// threshold < 0).
func checkProperty(chk *checker, what string, c *core.Chart, stats map[string]propStat, size int, threshold float64) {
	want := map[string]propStat{}
	for k, st := range stats {
		if threshold < 0 || (size > 0 && float64(st.subjects)/float64(size) >= threshold) {
			want[k] = st
		}
	}
	if len(c.Bars) != len(want) {
		chk.failf("%s: %d bars, oracle %d", what, len(c.Bars), len(want))
		return
	}
	for _, b := range c.Bars {
		k := canonTerm(b.Bar.Label)
		if st, ok := want[k]; !ok || st.subjects != b.Count || st.triples != b.Triples {
			chk.failf("%s: bar %s = %d/%d, oracle %d/%d", what, k, b.Count, b.Triples, st.subjects, st.triples)
			return
		}
	}
}
