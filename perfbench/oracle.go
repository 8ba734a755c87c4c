package main

import (
	"fmt"
	"sort"
	"strings"

	"elinda/internal/rdf"
)

// oracle is the benchmark's own plain-map index of the graph, built from
// the generated triples and kept apart from the program under test. Terms
// are interned into its own table; every triple is a key of a set and is
// listed under its subject, predicate and object. Writes of the update and
// fleet phases are applied to it too, so it always holds the graph the
// program should hold. All answers it gives are computed by naive loops
// over these maps.
type oracle struct {
	ids   map[string]int32
	terms []rdf.Term
	set   map[[3]int32]struct{}
	byS   map[int32][][3]int32
	byP   map[int32][][3]int32
	byO   map[int32][][3]int32

	typ, subClassOf int32
}

func newOracle(triples []rdf.Triple) *oracle {
	o := &oracle{
		ids: map[string]int32{},
		set: make(map[[3]int32]struct{}, len(triples)),
		byS: map[int32][][3]int32{},
		byP: map[int32][][3]int32{},
		byO: map[int32][][3]int32{},
	}
	o.typ = o.intern(rdf.TypeIRI)
	o.subClassOf = o.intern(rdf.SubClassOfIRI)
	for _, t := range triples {
		o.insert(t)
	}
	return o
}

func (o *oracle) intern(t rdf.Term) int32 {
	k := t.String()
	if id, ok := o.ids[k]; ok {
		return id
	}
	id := int32(len(o.terms))
	o.ids[k] = id
	o.terms = append(o.terms, t)
	return id
}

func (o *oracle) id(t rdf.Term) (int32, bool) {
	id, ok := o.ids[t.String()]
	return id, ok
}

func (o *oracle) key(t rdf.Triple) [3]int32 {
	return [3]int32{o.intern(t.S), o.intern(t.P), o.intern(t.O)}
}

// insert adds t and reports whether it was absent.
func (o *oracle) insert(t rdf.Triple) bool {
	k := o.key(t)
	if _, dup := o.set[k]; dup {
		return false
	}
	o.set[k] = struct{}{}
	o.byS[k[0]] = append(o.byS[k[0]], k)
	o.byP[k[1]] = append(o.byP[k[1]], k)
	o.byO[k[2]] = append(o.byO[k[2]], k)
	return true
}

// remove deletes t and reports whether it was present.
func (o *oracle) remove(t rdf.Triple) bool {
	k := o.key(t)
	if _, ok := o.set[k]; !ok {
		return false
	}
	delete(o.set, k)
	o.byS[k[0]] = without(o.byS[k[0]], k)
	o.byP[k[1]] = without(o.byP[k[1]], k)
	o.byO[k[2]] = without(o.byO[k[2]], k)
	return true
}

func without(list [][3]int32, k [3]int32) [][3]int32 {
	for i, e := range list {
		if e == k {
			return append(list[:i:i], list[i+1:]...)
		}
	}
	return list
}

func (o *oracle) has(t rdf.Triple) bool {
	s, ok1 := o.id(t.S)
	p, ok2 := o.id(t.P)
	ob, ok3 := o.id(t.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	_, ok := o.set[[3]int32{s, p, ob}]
	return ok
}

func (o *oracle) len() int { return len(o.set) }

// instances returns the subjects typed c.
func (o *oracle) instances(c int32) map[int32]bool {
	out := map[int32]bool{}
	for _, k := range o.byO[c] {
		if k[1] == o.typ {
			out[k[0]] = true
		}
	}
	return out
}

// typesOf returns the classes s is typed with.
func (o *oracle) typesOf(s int32) []int32 {
	var out []int32
	for _, k := range o.byS[s] {
		if k[1] == o.typ {
			out = append(out, k[2])
		}
	}
	return out
}

// subclasses returns the classes declared rdfs:subClassOf c.
func (o *oracle) subclasses(c int32) []int32 {
	var out []int32
	for _, k := range o.byO[c] {
		if k[1] == o.subClassOf {
			out = append(out, k[0])
		}
	}
	return out
}

// counts maps a chart label (the term's N-Triples form) to a bar height.
type counts map[string]int

// subclassChart is the subclass expansion of the instances of c: for each
// direct subclass, how many of them it types.
func (o *oracle) subclassChart(c int32) counts {
	set := o.instances(c)
	out := counts{}
	for _, sub := range o.subclasses(c) {
		n := 0
		for s := range o.instances(sub) {
			if set[s] {
				n++
			}
		}
		out[canonTerm(o.terms[sub])] = n
	}
	return out
}

// propStat is one bar of a property chart.
type propStat struct{ subjects, triples int }

// propertyChart is the property expansion of the instances of c: for each
// property, how many instances feature it (as subject, or as object when
// incoming) and in how many triples.
func (o *oracle) propertyChart(c int32, incoming bool) map[string]propStat {
	byID := map[int32]propStat{}
	for s := range o.instances(c) {
		list := o.byS[s]
		if incoming {
			list = o.byO[s]
		}
		seen := map[int32]bool{}
		for _, k := range list {
			st := byID[k[1]]
			st.triples++
			if !seen[k[1]] {
				seen[k[1]] = true
				st.subjects++
			}
			byID[k[1]] = st
		}
	}
	out := make(map[string]propStat, len(byID))
	for p, st := range byID {
		out[canonTerm(o.terms[p])] = st
	}
	return out
}

// objectChart is the object expansion of property p over the instances of
// c: the objects reached, counted per class.
func (o *oracle) objectChart(c, p int32, incoming bool) counts {
	objs := map[int32]bool{}
	for s := range o.instances(c) {
		if incoming {
			for _, k := range o.byO[s] {
				if k[1] == p {
					objs[k[0]] = true
				}
			}
			continue
		}
		for _, k := range o.byS[s] {
			if k[1] == p {
				objs[k[2]] = true
			}
		}
	}
	byID := map[int32]int{}
	for ob := range objs {
		for _, t := range o.typesOf(ob) {
			byID[t]++
		}
	}
	out := make(counts, len(byID))
	for t, n := range byID {
		out[canonTerm(o.terms[t])] = n
	}
	return out
}

// --- Query answers ---

// pattern is one triple pattern of a basic graph pattern: a position is
// a variable when its name is non-empty, a constant term otherwise.
type pattern struct {
	sv, pv, ov string
	s, p, o    rdf.Term
}

// solve evaluates a basic graph pattern by nested loops in the order
// given: each pattern is matched against every triple of the shortest
// list its bound positions select (every triple when none is bound), and
// the bindings are extended one pattern at a time. It returns the
// solutions projected on vars, one canonical row string each.
func (o *oracle) solve(pats []pattern, vars []string) []string {
	// Constants resolve once; one missing from the graph matches nothing.
	type slot struct {
		v  string
		id int32
	}
	compiled := make([][3]slot, len(pats))
	for i, pt := range pats {
		for j, x := range [3]struct {
			v string
			t rdf.Term
		}{{pt.sv, pt.s}, {pt.pv, pt.p}, {pt.ov, pt.o}} {
			if x.v != "" {
				compiled[i][j] = slot{v: x.v}
				continue
			}
			id, ok := o.id(x.t)
			if !ok {
				return nil
			}
			compiled[i][j] = slot{id: id}
		}
	}
	var rows []string
	binding := map[string]int32{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(compiled) {
			rows = append(rows, o.row(binding, vars))
			return
		}
		pos := compiled[i]
		var want [3]int32
		var bound [3]bool
		for j, x := range pos {
			if x.v == "" {
				want[j], bound[j] = x.id, true
			} else if id, ok := binding[x.v]; ok {
				want[j], bound[j] = id, true
			}
		}
		var cand [][3]int32
		first := true
		for j, idx := range [3]map[int32][][3]int32{o.byS, o.byP, o.byO} {
			if bound[j] && (first || len(idx[want[j]]) < len(cand)) {
				cand, first = idx[want[j]], false
			}
		}
		if first {
			for k := range o.set {
				cand = append(cand, k)
			}
		}
		for _, k := range cand {
			ok := true
			for j := 0; j < 3; j++ {
				if bound[j] && k[j] != want[j] {
					ok = false
				}
			}
			if !ok {
				continue
			}
			// Bind fresh variables; a variable repeated inside the
			// pattern must take the same value in each position.
			var fresh []string
			for j, x := range pos {
				if x.v == "" || bound[j] {
					continue
				}
				if prev, set := binding[x.v]; set {
					if prev != k[j] {
						ok = false
					}
					continue
				}
				binding[x.v] = k[j]
				fresh = append(fresh, x.v)
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range fresh {
				delete(binding, v)
			}
		}
	}
	rec(0)
	sort.Strings(rows)
	return rows
}

func (o *oracle) row(b map[string]int32, vars []string) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = v + "=" + canonTerm(o.terms[b[v]])
	}
	return strings.Join(parts, " ")
}

// canonTerm renders a term for comparing answers: IRIs and blank nodes
// by value, literals by lexical form and language tag. Datatypes are left
// out so that a count reads the same whatever integer type carries it.
func canonTerm(t rdf.Term) string {
	switch t.Kind {
	case rdf.IRI:
		return "<" + t.Value + ">"
	case rdf.Blank:
		return "_:" + t.Value
	default:
		if t.Lang != "" {
			return fmt.Sprintf("%q@%s", t.Value, t.Lang)
		}
		return fmt.Sprintf("%q", t.Value)
	}
}

// canonRows renders a result row set in the form solve produces: one
// string per row with the named variables in the given order, sorted.
func canonRows(vars []string, rows []map[string]rdf.Term) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		parts := make([]string, len(vars))
		for i, v := range vars {
			t, ok := r[v]
			if !ok {
				parts[i] = v + "=UNBOUND"
				continue
			}
			parts[i] = v + "=" + canonTerm(t)
		}
		out = append(out, strings.Join(parts, " "))
	}
	sort.Strings(out)
	return out
}

// groupRows renders an aggregate answer (label -> count, and optionally
// a second count) as canonical rows over the variables of a chart query.
func groupRows(labelVar, countVar string, c counts) []string {
	out := make([]string, 0, len(c))
	for label, n := range c {
		if n == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%s=%s %s=%q", labelVar, label, countVar, fmt.Sprint(n)))
	}
	sort.Strings(out)
	return out
}
