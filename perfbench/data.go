package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"elinda/internal/core"
	"elinda/internal/datagen"
	"elinda/internal/rdf"
)

// scale sizes one benchmark workload: the DBpedia-like generator's person
// count for the explore, serve and update phases, and for the fleet.
type scale struct {
	persons      int
	fleetPersons int
}

// scales are the benchmark workloads. full is the size the figures in
// the README are quoted at (about 372k triples, fleet 94k); quarter is the
// same mix on a graph a quarter of the size, so a cost that grows with
// the store shows as a ratio between the two.
var scales = map[string]scale{
	"full":    {persons: 20000, fleetPersons: 5000},
	"quarter": {persons: 5000, fleetPersons: 1250},
	// toy keeps the tests fast; it is not a benchmark workload.
	"toy": {persons: 300, fleetPersons: 150},
}

// graph is one generated input: the triples (for the oracle) and their
// N-Triples serialisation (what the program ingests).
type graph struct {
	triples []rdf.Triple
	nt      []byte
}

func makeGraph(seed int64, persons int) *graph {
	cfg := datagen.DefaultConfig()
	cfg.Seed = seed
	cfg.Persons = persons
	ds := datagen.Generate(cfg)
	var buf bytes.Buffer
	if _, err := rdf.WriteNTriples(&buf, ds.Triples); err != nil {
		panic(err)
	}
	return &graph{triples: ds.Triples, nt: buf.Bytes()}
}

// midClasses are the classes the write streams touch: populated, below
// the top level, and small enough that the read after a write stays a
// chart of one class.
var midClasses = []string{
	"Philosopher", "Politician", "Scientist", "Writer", "Artist", "Athlete",
	"City", "Book", "Company", "University",
}

// populatedClasses lists, sorted, every declared class with at least one
// instance: the classes an explorer can reach by drilling into non-empty
// bars.
func populatedClasses(o *oracle) []rdf.Term {
	owlClass, ok := o.id(rdf.OWLClassIRI)
	if !ok {
		return nil
	}
	var out []rdf.Term
	for _, k := range o.byO[owlClass] {
		if k[1] == o.typ && len(o.instances(k[0])) > 0 {
			out = append(out, o.terms[k[0]])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// qkind is the class of a served query.
type qkind int

const (
	qPropOut qkind = iota
	qPropIn
	qSubclass
	qObject
	qLookup
	qStar
	qChain
	qCycle
)

func (k qkind) String() string {
	return [...]string{"prop-out", "prop-in", "subclass", "object", "lookup", "star", "chain", "cycle"}[k]
}

func (k qkind) isChart() bool { return k <= qObject }
func (k qkind) isJoin() bool  { return k >= qStar }

// query is one served SPARQL query with what the oracle needs to answer
// it independently of the text.
type query struct {
	kind  qkind
	text  string
	class rdf.Term
	prop  rdf.Term
	pats  []pattern
	vars  []string
}

// expected is the oracle's answer as canonical rows.
func (q *query) expected(o *oracle) []string {
	switch q.kind {
	case qPropOut, qPropIn:
		cid, ok := o.id(q.class)
		if !ok {
			return nil
		}
		var rows []string
		for p, st := range o.propertyChart(cid, q.kind == qPropIn) {
			rows = append(rows, fmt.Sprintf("p=%s count=%q sp=%q", p, fmt.Sprint(st.subjects), fmt.Sprint(st.triples)))
		}
		sort.Strings(rows)
		return rows
	case qSubclass:
		cid, ok := o.id(q.class)
		if !ok {
			return nil
		}
		return groupRows("c", "n", o.subclassChart(cid))
	case qObject:
		cid, ok1 := o.id(q.class)
		pid, ok2 := o.id(q.prop)
		if !ok1 || !ok2 {
			return nil
		}
		return groupRows("t", "n", o.objectChart(cid, pid, false))
	default:
		return o.solve(q.pats, q.vars)
	}
}

func ont(local string) rdf.Term { return datagen.Ont(local) }

// chartQueries returns the explorer-generated chart queries of one class:
// its outgoing and incoming property expansions, its subclass chart and
// the object chart of its most used IRI-valued property.
func chartQueries(o *oracle, c rdf.Term) []*query {
	out := []*query{
		{kind: qPropOut, class: c, text: core.PropertyExpansionSPARQL(c, false), vars: []string{"p", "count", "sp"}},
		{kind: qPropIn, class: c, text: core.PropertyExpansionSPARQL(c, true), vars: []string{"p", "count", "sp"}},
		{kind: qSubclass, class: c, text: core.SubclassChartSPARQL(c), vars: []string{"c", "n"}},
	}
	prop := objectProperty(o, c)
	out = append(out, &query{kind: qObject, class: c, prop: prop, text: core.ObjectExpansionSPARQL(c, prop, false), vars: []string{"t", "n"}})
	return out
}

// objectProperty picks the property whose IRI objects the instances of c
// reach most often (ties by name), or rdf:type when they reach none.
func objectProperty(o *oracle, c rdf.Term) rdf.Term {
	cid, _ := o.id(c)
	uses := map[int32]int{}
	for s := range o.instances(cid) {
		for _, k := range o.byS[s] {
			if k[1] != o.typ && o.terms[k[2]].Kind == rdf.IRI {
				uses[k[1]]++
			}
		}
	}
	best, bestN := rdf.TypeIRI, 0
	for p, n := range uses {
		t := o.terms[p]
		if n > bestN || (n == bestN && t.Value < best.Value) {
			best, bestN = t, n
		}
	}
	return best
}

// lookupQuery describes a resource: its properties and values, with the
// classes of the values.
func lookupQuery(r rdf.Term) *query {
	return &query{
		kind: qLookup,
		text: fmt.Sprintf("SELECT ?p ?o ?t WHERE { %s ?p ?o . ?o a ?t . }", r),
		pats: []pattern{{s: r, pv: "p", ov: "o"}, {sv: "o", p: rdf.TypeIRI, ov: "t"}},
		vars: []string{"p", "o", "t"},
	}
}

// joinQuery builds one of the three join shapes anchored at a constant:
// a star around the philosophers influenced by anchor, a chain from
// philosopher anchor through its influence and that one's birthplace to
// the country, and a cycle of an influence between two people born in
// the same place of country anchor.
func joinQuery(kind qkind, anchor rdf.Term) *query {
	infl, bp, country, date := ont("influencedBy"), ont("birthPlace"), ont("country"), ont("birthDate")
	q := &query{kind: kind}
	switch kind {
	case qStar:
		q.pats = []pattern{{sv: "x", p: infl, o: anchor}, {sv: "x", p: bp, ov: "b"}, {sv: "x", p: date, ov: "d"}}
		q.vars = []string{"x", "b", "d"}
	case qChain:
		q.pats = []pattern{{s: anchor, p: infl, ov: "y"}, {sv: "y", p: bp, ov: "c"}, {sv: "c", p: country, ov: "k"}}
		q.vars = []string{"y", "c", "k"}
	case qCycle:
		q.pats = []pattern{{sv: "c", p: country, o: anchor}, {sv: "x", p: bp, ov: "c"}, {sv: "y", p: bp, ov: "c"}, {sv: "x", p: infl, ov: "y"}}
		q.vars = []string{"x", "y", "c"}
	}
	q.text = bgpText(q.vars, q.pats)
	return q
}

func bgpText(vars []string, pats []pattern) string {
	var b bytes.Buffer
	b.WriteString("SELECT")
	for _, v := range vars {
		b.WriteString(" ?" + v)
	}
	b.WriteString(" WHERE {")
	pos := func(v string, t rdf.Term) string {
		if v != "" {
			return "?" + v
		}
		return t.String()
	}
	for _, p := range pats {
		fmt.Fprintf(&b, " %s %s %s .", pos(p.sv, p.s), pos(p.pv, p.p), pos(p.ov, p.o))
	}
	b.WriteString(" }")
	return b.String()
}

// servePool is the serve phase's query population.
type servePool struct {
	charts  []*query // Zipf-ranked: index 0 is the most popular
	lookups []*query // present resources, each named once per pass
	joins   []*query // each shape and anchor once per pass
	round   []*query // one round of chart draws, in a seeded order
	nc      int
	rng     *rand.Rand
	nl, nj  int
	absent  int
}

// zipfRound is the number of chart queries in one round of draws, and
// zipfS the skew: the query of rank k (from 0) is drawn in proportion to
// (k+1)^-zipfS.
const (
	zipfRound = 2000
	zipfS     = 1.1
)

// zipfCounts splits n draws over ranks 0..m-1 in proportion to
// (k+1)^-s, rounding by largest remainder so the counts add up to n.
func zipfCounts(m, n int, s float64) []int {
	w := make([]float64, m)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		total += w[k]
	}
	counts := make([]int, m)
	type rem struct {
		k int
		r float64
	}
	rems := make([]rem, m)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		rems[k] = rem{k, exact - float64(counts[k])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].r > rems[j].r })
	for i := 0; i < left; i++ {
		counts[rems[i].k]++
	}
	return counts
}

// Mix shares of the serve phase, in tenths: seven chart queries, two
// lookups and one join in every ten queries.
const (
	chartTenths  = 7
	lookupTenths = 2
)

func newServePool(o *oracle, seed int64) *servePool {
	rng := rand.New(rand.NewSource(seed ^ 0x5e27e))
	p := &servePool{}
	// The Zipf ranks follow the sorted class list, and every round of
	// chart draws holds each query as often as its Zipf share says: all
	// seeds and rounds draw the same queries the same number of times,
	// and the seed decides only their order.
	for _, c := range populatedClasses(o) {
		p.charts = append(p.charts, chartQueries(o, c)...)
	}
	p.rng = rng
	for k, n := range zipfCounts(len(p.charts), zipfRound, zipfS) {
		for ; n > 0; n-- {
			p.round = append(p.round, p.charts[k])
		}
	}

	// Lookups name the instances of the mid classes in a seeded order;
	// joins are anchored at influencers, at philosophers with an
	// influence and at countries.
	var resources, influencers, influenced, countries []rdf.Term
	for _, c := range midClasses {
		if cid, ok := o.id(ont(c)); ok {
			for _, id := range sortedIDs(o.instances(cid)) {
				resources = append(resources, o.terms[id])
			}
		}
	}
	if infl, ok := o.id(ont("influencedBy")); ok {
		seenA, seenX := map[int32]bool{}, map[int32]bool{}
		for _, k := range o.byP[infl] {
			if !seenA[k[2]] {
				seenA[k[2]] = true
				influencers = append(influencers, o.terms[k[2]])
			}
			if !seenX[k[0]] {
				seenX[k[0]] = true
				influenced = append(influenced, o.terms[k[0]])
			}
		}
	}
	if cid, ok := o.id(ont("Country")); ok {
		for _, id := range sortedIDs(o.instances(cid)) {
			countries = append(countries, o.terms[id])
		}
	}
	for _, list := range [][]rdf.Term{resources, influencers, influenced} {
		sort.Slice(list, func(i, j int) bool { return list[i].Value < list[j].Value })
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	}
	for _, r := range resources {
		p.lookups = append(p.lookups, lookupQuery(r))
	}
	for i := 0; i < len(influencers) || i < len(influenced); i++ {
		if i < len(influencers) {
			p.joins = append(p.joins, joinQuery(qStar, influencers[i]))
		}
		if i < len(influenced) {
			p.joins = append(p.joins, joinQuery(qChain, influenced[i]))
		}
		if len(countries) > 0 {
			p.joins = append(p.joins, joinQuery(qCycle, countries[rng.Intn(len(countries))]))
		}
	}
	return p
}

// next draws the serve phase's next query: the i-th query of every
// ten follows the fixed mix, so each run attempts whole rounds of it.
// Chart queries repeat with Zipf skew; lookups and joins walk their
// seeded orders, so they repeat only after a whole pass.
func (p *servePool) next(i int) *query {
	switch slot := i % 10; {
	case slot < chartTenths:
		return p.chartByZipf()
	case slot < chartTenths+lookupTenths:
		// One lookup in ten names a resource absent from the graph.
		if i%50 == 7 {
			p.absent++
			return lookupQuery(datagen.Res(fmt.Sprintf("absent_%d", p.absent)))
		}
		q := p.lookups[p.nl%len(p.lookups)]
		p.nl++
		return q
	default:
		q := p.joins[p.nj%len(p.joins)]
		p.nj++
		return q
	}
}

// chartByZipf returns the next chart query of the current round,
// starting a freshly shuffled round when one is used up.
func (p *servePool) chartByZipf() *query {
	if p.nc%len(p.round) == 0 {
		p.rng.Shuffle(len(p.round), func(i, j int) { p.round[i], p.round[j] = p.round[j], p.round[i] })
	}
	q := p.round[p.nc%len(p.round)]
	p.nc++
	return q
}

func sortedIDs(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// write is one single-triple mutation of a write stream, with the class
// whose property chart is read after it.
type write struct {
	del   bool
	t     rdf.Triple
	class rdf.Term
}

// updateText renders the write as a SPARQL UPDATE request.
func (w write) updateText() string {
	op := "INSERT DATA"
	if w.del {
		op = "DELETE DATA"
	}
	return fmt.Sprintf("%s { %s %s %s . }", op, w.t.S, w.t.P, w.t.O)
}

// writeStream yields an endless, seeded sequence of single-triple writes
// alternating inserts and deletes. Deletes take distinct instance triples
// of the base graph (rdf:type triples among them, class-hierarchy
// triples never); inserts add fresh resources, first typed and then
// given a property.
type writeStream struct {
	dels   []write
	tag    string
	n      int
	rng    *rand.Rand
	fresh  []rdf.Term
	fclass []rdf.Term
}

func newWriteStream(o *oracle, seed int64, tag string) *writeStream {
	ws := &writeStream{tag: tag, rng: rand.New(rand.NewSource(seed ^ 0x3417e))}
	for _, c := range midClasses {
		cid, ok := o.id(ont(c))
		if !ok {
			continue
		}
		for _, s := range sortedIDs(o.instances(cid)) {
			for _, k := range o.byS[s] {
				if k[1] == o.subClassOf {
					continue
				}
				ws.dels = append(ws.dels, write{del: true, t: rdf.Triple{S: o.terms[k[0]], P: o.terms[k[1]], O: o.terms[k[2]]}, class: ont(c)})
			}
		}
	}
	// Instances typed with two mid classes list their triples twice.
	seen := map[string]bool{}
	uniq := ws.dels[:0]
	for _, w := range ws.dels {
		if k := w.t.String(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, w)
		}
	}
	ws.dels = uniq
	ws.rng.Shuffle(len(ws.dels), func(i, j int) { ws.dels[i], ws.dels[j] = ws.dels[j], ws.dels[i] })
	return ws
}

// next returns the stream's next write.
func (ws *writeStream) next() write {
	i := ws.n
	ws.n++
	if i%2 == 1 {
		return ws.dels[(i/2)%len(ws.dels)]
	}
	k := i / 2
	if k%2 == 0 {
		r := datagen.Res(fmt.Sprintf("%s_new_%d", ws.tag, k/2))
		c := ont(midClasses[ws.rng.Intn(len(midClasses))])
		ws.fresh = append(ws.fresh, r)
		ws.fclass = append(ws.fclass, c)
		return write{t: rdf.Triple{S: r, P: rdf.TypeIRI, O: c}, class: c}
	}
	r, c := ws.fresh[len(ws.fresh)-1], ws.fclass[len(ws.fclass)-1]
	return write{t: rdf.Triple{S: r, P: ont("name"), O: rdf.NewLiteral(r.LocalName())}, class: c}
}
