package main

import (
	"net/http"
	"strings"
	"time"

	"elinda/internal/endpoint"
	"elinda/internal/rdf"
)

// serveStats are the serve phase's latency classes, each timed at the
// client from request to the last byte of the response.
type serveStats struct {
	chart, lookup, join series
}

// answerCheck compares served answers with the oracle. Each distinct
// query's oracle answer is computed once (the serve graph does not
// change), and every later answer of the same query — the HVS hits among
// them — must equal the first one.
type answerCheck struct {
	o     *oracle
	want  map[*query]string
	first map[*query]string
}

func newAnswerCheck(o *oracle) *answerCheck {
	return &answerCheck{o: o, want: map[*query]string{}, first: map[*query]string{}}
}

// decode renders a response body as canonical rows.
func decode(q *query, body []byte) (string, error) {
	res, err := endpoint.UnmarshalResult(body)
	if err != nil {
		return "", err
	}
	rows := make([]map[string]rdf.Term, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r
	}
	return strings.Join(canonRows(q.vars, rows), "\n"), nil
}

// check compares one answer with the oracle's, computed against the
// oracle's current graph unless memoized.
func (a *answerCheck) check(chk *checker, what string, q *query, body []byte, memo bool) {
	got, err := decode(q, body)
	if err != nil {
		chk.failf("%s: %s: %v", what, q.kind, err)
		return
	}
	want, ok := a.want[q]
	if !ok || !memo {
		want = strings.Join(q.expected(a.o), "\n")
		if memo {
			a.want[q] = want
		}
	}
	if got != want {
		chk.failf("%s: %s query answer differs from the oracle\nquery: %s\ngot:\n%.600s\nwant:\n%.600s", what, q.kind, q.text, got, want)
		return
	}
	if memo {
		if f, ok := a.first[q]; !ok {
			a.first[q] = got
		} else if f != got {
			chk.failf("%s: repeated answer of %s differs from its first answer", what, q.text)
		}
	}
}

// runServe sends the serve mix to the endpoint until the phase's time is
// spent, in whole rounds of ten queries.
func runServe(c *http.Client, base string, pool *servePool, o *oracle, ph *phase, chk *checker) *serveStats {
	st := &serveStats{}
	ac := newAnswerCheck(o)
	for i := 0; ph.more() || i%10 != 0; i++ {
		q := pool.next(i)
		var body []byte
		var d time.Duration
		ph.op(func() (err error) {
			t := time.Now()
			body, err = httpQuery(c, base, q.text)
			d = time.Since(t)
			return err
		})
		if body == nil {
			continue
		}
		switch {
		case q.kind.isChart():
			st.chart.add(d)
		case q.kind == qLookup:
			st.lookup.add(d)
		default:
			st.join.add(d)
		}
		ac.check(chk, "serve", q, body, true)
	}
	return st
}
