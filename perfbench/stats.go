package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// series is one latency class: the durations of every operation of that
// class in a run, in milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks. It panics on an empty series: a metric is only reported
// when its operations produced samples.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		panic("quantile of an empty series")
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s series) p50() float64 { return s.quantile(0.5) }

// tails renders p90 and p99 where the series has at least ten samples
// beyond them; a percentile with fewer is no tail and is left out.
func (s series) tails() string {
	out := ""
	for _, q := range []struct {
		name string
		q    float64
	}{{"p90", 0.9}, {"p99", 0.99}} {
		if float64(len(s))*(1-q.q) >= 10 {
			out += fmt.Sprintf(" %s=%.4f", q.name, s.quantile(q.q))
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time so far (getrusage). It
// counts every goroutine of the process: the HTTP server, the engine's
// parallel workers and the garbage collector.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch times one operation in wall time and in process CPU time.
type stopwatch struct {
	t time.Time
	c time.Duration
}

func startWatch() stopwatch { return stopwatch{c: cpuTime(), t: time.Now()} }

// stop books the operation's wall time to wall and its CPU time to cpu.
func (s stopwatch) stop(wall, cpu *series) {
	wall.add(time.Since(s.t))
	cpu.add(cpuTime() - s.c)
}

// phase accounts the measured operations of one phase. Only the
// time inside op counts: output checks and bookkeeping between
// operations are outside the measurement.
type phase struct {
	name    string
	budget  time.Duration
	busy    time.Duration
	cpu     time.Duration
	ops     int
	failed  int
	lastErr error
}

// more reports whether the phase still has measurement time left.
func (p *phase) more() bool { return p.busy < p.budget }

// op runs one operation and books its wall and CPU time. A returned error
// counts the operation as failed.
func (p *phase) op(fn func() error) {
	c0 := cpuTime()
	t0 := time.Now()
	err := fn()
	p.busy += time.Since(t0)
	p.cpu += cpuTime() - c0
	p.ops++
	if err != nil {
		p.failed++
		p.lastErr = err
	}
}

// opsPerSec is completed operations per second of operation time.
func (p *phase) opsPerSec() float64 { return float64(p.ops-p.failed) / p.busy.Seconds() }

func (p *phase) cpuMsPerOp() float64 { return float64(p.cpu.Nanoseconds()) / 1e6 / float64(p.ops) }
