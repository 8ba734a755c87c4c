package main

import (
	"reflect"
	"strings"
	"testing"

	"elinda/internal/rdf"
)

// A tiny hand-written graph: classes A ⊑ Thing, B ⊑ A, C ⊑ A and X, Y;
// instances a1 (A), b1 (B), c1 (C), x1 (X), x2 (X, Y); property p links
// a1→x1, b1→x1, b1→x2 and c1→x1, q gives a1 a literal, and r links
// x1→x2 and x2→x1.
func tinyGraph() []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	typ, sub := rdf.TypeIRI, rdf.SubClassOfIRI
	thing := rdf.OWLThingIRI
	tr := func(s, p, o rdf.Term) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	A, B, C, X, Y := iri("A"), iri("B"), iri("C"), iri("X"), iri("Y")
	a1, b1, c1, x1, x2 := iri("a1"), iri("b1"), iri("c1"), iri("x1"), iri("x2")
	p, q, r := iri("p"), iri("q"), iri("r")
	return []rdf.Triple{
		tr(thing, typ, rdf.OWLClassIRI),
		tr(A, typ, rdf.OWLClassIRI), tr(A, sub, thing),
		tr(B, typ, rdf.OWLClassIRI), tr(B, sub, A),
		tr(C, typ, rdf.OWLClassIRI), tr(C, sub, A),
		tr(X, typ, rdf.OWLClassIRI), tr(Y, typ, rdf.OWLClassIRI),
		tr(a1, typ, A), tr(a1, typ, thing),
		tr(b1, typ, B), tr(b1, typ, A), tr(b1, typ, thing),
		tr(c1, typ, C), tr(c1, typ, A), tr(c1, typ, thing),
		tr(x1, typ, X), tr(x2, typ, X), tr(x2, typ, Y),
		tr(a1, p, x1), tr(b1, p, x1), tr(b1, p, x2), tr(c1, p, x1),
		tr(a1, q, rdf.NewLiteral("lit")),
		tr(x1, r, x2), tr(x2, r, x1),
	}
}

func tinyID(t *testing.T, o *oracle, local string) int32 {
	t.Helper()
	id, ok := o.id(rdf.NewIRI("http://t/" + local))
	if !ok {
		t.Fatalf("%s not in the oracle", local)
	}
	return id
}

func TestOracleCharts(t *testing.T) {
	o := newOracle(tinyGraph())
	A := tinyID(t, o, "A")
	if got := len(o.instances(A)); got != 3 {
		t.Errorf("instances(A) = %d, want 3", got)
	}
	if got, want := o.subclassChart(A), (counts{"<http://t/B>": 1, "<http://t/C>": 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("subclassChart(A) = %v, want %v", got, want)
	}
	wantOut := map[string]propStat{
		"<" + rdf.RDFType + ">": {subjects: 3, triples: 8},
		"<http://t/p>":          {subjects: 3, triples: 4},
		"<http://t/q>":          {subjects: 1, triples: 1},
	}
	if got := o.propertyChart(A, false); !reflect.DeepEqual(got, wantOut) {
		t.Errorf("propertyChart(A, out) = %v, want %v", got, wantOut)
	}
	X := tinyID(t, o, "X")
	wantIn := map[string]propStat{
		"<http://t/p>": {subjects: 2, triples: 4},
		"<http://t/r>": {subjects: 2, triples: 2},
	}
	if got := o.propertyChart(X, true); !reflect.DeepEqual(got, wantIn) {
		t.Errorf("propertyChart(X, in) = %v, want %v", got, wantIn)
	}
	p := tinyID(t, o, "p")
	if got, want := o.objectChart(A, p, false), (counts{"<http://t/X>": 2, "<http://t/Y>": 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("objectChart(A, p) = %v, want %v", got, want)
	}
}

func TestOracleSolve(t *testing.T) {
	o := newOracle(tinyGraph())
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	// Star: subjects with p to an X that is also a Y.
	star := []pattern{{sv: "s", p: iri("p"), ov: "o"}, {sv: "o", p: rdf.TypeIRI, o: iri("Y")}}
	if got, want := o.solve(star, []string{"s", "o"}), []string{"s=<http://t/b1> o=<http://t/x2>"}; !reflect.DeepEqual(got, want) {
		t.Errorf("star = %v, want %v", got, want)
	}
	// Cycle of length two over r.
	cycle := []pattern{{sv: "a", p: iri("r"), ov: "b"}, {sv: "b", p: iri("r"), ov: "a"}}
	want := []string{"a=<http://t/x1> b=<http://t/x2>", "a=<http://t/x2> b=<http://t/x1>"}
	if got := o.solve(cycle, []string{"a", "b"}); !reflect.DeepEqual(got, want) {
		t.Errorf("cycle = %v, want %v", got, want)
	}
	// Chain from a1 through p and r.
	chain := []pattern{{s: iri("a1"), p: iri("p"), ov: "y"}, {sv: "y", p: iri("r"), ov: "z"}}
	if got, want := o.solve(chain, []string{"y", "z"}), []string{"y=<http://t/x1> z=<http://t/x2>"}; !reflect.DeepEqual(got, want) {
		t.Errorf("chain = %v, want %v", got, want)
	}
	// A repeated variable must bind one value: nothing links to itself.
	self := []pattern{{sv: "a", p: iri("r"), ov: "a"}}
	if got := o.solve(self, []string{"a"}); len(got) != 0 {
		t.Errorf("self loop = %v, want none", got)
	}
	// A constant absent from the graph matches nothing.
	if got := o.solve(lookupQuery(iri("absent")).pats, []string{"p", "o", "t"}); len(got) != 0 {
		t.Errorf("absent lookup = %v, want none", got)
	}
	// The lookup shape: a1's values with their classes.
	got := o.solve(lookupQuery(iri("a1")).pats, []string{"p", "o", "t"})
	if len(got) != 3 || !strings.Contains(strings.Join(got, "|"), "p=<http://t/p> o=<http://t/x1> t=<http://t/X>") {
		t.Errorf("lookup a1 = %v", got)
	}
}

func TestOracleWrites(t *testing.T) {
	o := newOracle(tinyGraph())
	n := o.len()
	tr := rdf.Triple{S: rdf.NewIRI("http://t/new"), P: rdf.TypeIRI, O: rdf.NewIRI("http://t/B")}
	if !o.insert(tr) || o.insert(tr) {
		t.Fatal("insert: want true then false")
	}
	B := tinyID(t, o, "B")
	if got := len(o.instances(B)); got != 2 {
		t.Errorf("instances(B) after insert = %d, want 2", got)
	}
	if !o.remove(tr) || o.remove(tr) {
		t.Fatal("remove: want true then false")
	}
	if o.len() != n || o.has(tr) || len(o.instances(B)) != 1 {
		t.Errorf("after remove: len %d (want %d), has %v", o.len(), n, o.has(tr))
	}
	// Removing a base triple drops it from every index.
	base := tinyGraph()[len(tinyGraph())-1]
	k := o.key(base)
	o.remove(base)
	for i, idx := range []map[int32][][3]int32{o.byS, o.byP, o.byO} {
		for _, e := range idx[k[i]] {
			if e == k {
				t.Errorf("removed triple still in index %d", i)
			}
		}
	}
}

func TestCanonRowsMatchesOracle(t *testing.T) {
	rows := []map[string]rdf.Term{
		{"p": rdf.NewIRI("http://t/p"), "count": rdf.NewTypedLiteral("3", rdf.XSDInteger)},
		{"p": rdf.NewIRI("http://t/q"), "count": rdf.NewLiteral("1")},
	}
	got := canonRows([]string{"p", "count"}, rows)
	want := groupRows("p", "count", counts{"<http://t/p>": 3, "<http://t/q>": 1, "<http://t/z>": 0})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonRows = %v, groupRows = %v", got, want)
	}
}
