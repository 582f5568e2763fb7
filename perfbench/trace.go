package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Parent is the index of the enclosing
// span (-1 at the top); Lane names the goroutine that ran it, so
// parallel work can be attributed per lane. CPU is the CPU time the call
// used, read from the tracer's clock; a span added from a layer's own
// phase report has no clock reading of its own and takes its parent's
// CPU-to-wall ratio (FromParent).
type span struct {
	Name       string  `json:"name"`
	Parent     int     `json:"parent"`
	Lane       int     `json:"lane"`
	Start      float64 `json:"start_s"`
	Dur        float64 `json:"dur_s"`
	CPU        float64 `json:"cpu_s"`
	FromParent bool    `json:"cpu_from_parent,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing and costs one branch per call, which is
// how the untraced runs use it.
type tracer struct {
	mu sync.Mutex
	t0 time.Time
	// clock reads the CPU time a span is charged: the process's
	// (processCPU) when one call runs at a time, however many threads it
	// uses, or the calling thread's (threadCPU) for goroutines locked to
	// their threads that trace side by side.
	clock func() float64
	spans []span
}

func newTracer(clock func() float64) *tracer { return &tracer{t0: time.Now(), clock: clock} }

// do times f as a span named name under parent and returns its wall and
// CPU seconds; idx, passed to f, is the span's index for children. A nil
// tracer reads the process's CPU clock.
func (t *tracer) do(name string, parent, lane int, f func(idx int)) (wall, cpu float64) {
	if t == nil {
		c0, start := processCPU(), time.Now()
		f(-1)
		return time.Since(start).Seconds(), processCPU() - c0
	}
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Lane: lane})
	t.mu.Unlock()
	c0, start := t.clock(), time.Now()
	f(idx)
	wall, cpu = time.Since(start).Seconds(), t.clock()-c0
	t.mu.Lock()
	t.spans[idx].Start = start.Sub(t.t0).Seconds()
	t.spans[idx].Dur = wall
	t.spans[idx].CPU = cpu
	t.mu.Unlock()
	return wall, cpu
}

// add records an already-measured interval as a span. With fromParent
// its CPU time is its parent's CPU-to-wall ratio times d; otherwise it
// has none (client-side waits).
func (t *tracer) add(name string, parent, lane int, start time.Time, d time.Duration, fromParent bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Lane: lane,
		Start: start.Sub(t.t0).Seconds(), Dur: d.Seconds(), FromParent: fromParent && parent >= 0})
	return len(t.spans) - 1
}

// resolve fills in the CPU time of spans that take it from their parent.
// Call it with t.mu held, after every span has closed.
func (t *tracer) resolve() {
	for i, s := range t.spans {
		if !s.FromParent {
			continue
		}
		if p := t.spans[s.Parent]; p.Dur > 0 {
			t.spans[i].CPU = s.Dur * p.CPU / p.Dur
		}
	}
}

// selfTimes returns, per span name, the summed self wall time and self
// CPU time: each span's minus its direct children's.
func (t *tracer) selfTimes() (wall, cpu map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolve()
	childWall := make([]float64, len(t.spans))
	childCPU := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childWall[s.Parent] += s.Dur
			childCPU[s.Parent] += s.CPU
		}
	}
	wall, cpu = map[string]float64{}, map[string]float64{}
	for i, s := range t.spans {
		wall[s.Name] += s.Dur - childWall[i]
		cpu[s.Name] += s.CPU - childCPU[i]
	}
	return wall, cpu
}

// write dumps the spans as JSON lines into dir.
func (t *tracer) write(dir, name string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	t.resolve()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// attribution splits the untraced total of the work behind one gated
// end-to-end metric into layer self times plus a residual. Residual is
// defined as Total minus the layers, so the parts always sum to the
// total and an unattributed gap shows up as residual; what makes the split
// useful is that Total is the same work the gated metric times, and
// Overhead compares it with a traced rerun of that work.
type attribution struct {
	// Metric is the gated end-to-end metric this splits, Gated its value
	// in the same run (equal to Total, or a median-based figure over the
	// same work; Note says which).
	Metric   string             `json:"metric"`
	Gated    float64            `json:"gated_value"`
	Unit     string             `json:"unit"`
	Total    float64            `json:"total"`
	Layers   map[string]float64 `json:"layers"`
	Residual float64            `json:"residual"`
	// Traced is the same work's total in the traced rerun; Overhead is
	// Traced minus Total.
	Traced   float64 `json:"traced_total"`
	Overhead float64 `json:"tracing_overhead"`
	Note     string  `json:"note"`
}

func newAttribution(metric string, gated float64, unit, note string, total, traced float64, layers map[string]float64) *attribution {
	a := &attribution{Metric: metric, Gated: gated, Unit: unit, Total: total, Layers: layers,
		Traced: traced, Overhead: traced - total, Note: note}
	sum := 0.0
	for _, v := range layers {
		sum += v
	}
	a.Residual = total - sum
	return a
}

// addAttribution reports the batch_cpu_s attribution as the trace.*
// per-layer metrics and adds a to the record.
func (e *env) addAttribution(a *attribution) {
	e.rec.Attribution = append(e.rec.Attribution, a)
	if a.Metric == "batch_cpu_s" {
		e.layers["trace.total_s"] = a.Total
		e.layers["trace.residual_s"] = a.Residual
		e.layers["trace.overhead_s"] = a.Overhead
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile with at least ten samples beyond
// it at sample count n: the highest of p99, p95, p90 and p75 that has, or
// 1-10/n below that.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	if n <= 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func pctName(q float64) string { return fmt.Sprintf("p%g", q*100) }
