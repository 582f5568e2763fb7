package loadgen

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparseorder/internal/obs"
	"sparseorder/internal/server"
)

func TestParsePromLine(t *testing.T) {
	cases := []struct {
		line   string
		name   string
		labels map[string]string
		value  float64
	}{
		{`foo 42`, "foo", map[string]string{}, 42},
		{`foo{a="b"} 1.5`, "foo", map[string]string{"a": "b"}, 1.5},
		{`h_bucket{route="spmv",le="+Inf"} 7`, "h_bucket",
			map[string]string{"route": "spmv", "le": "+Inf"}, 7},
		{`e{k="a\"b\\c\nd"} 0`, "e", map[string]string{"k": "a\"b\\c\nd"}, 0},
	}
	for _, tc := range cases {
		s, err := parsePromLine(tc.line)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.line, err)
		}
		if s.name != tc.name || s.value != tc.value {
			t.Errorf("%q: got (%q, %v), want (%q, %v)", tc.line, s.name, s.value, tc.name, tc.value)
		}
		for k, v := range tc.labels {
			if s.labels[k] != v {
				t.Errorf("%q: label %s = %q, want %q", tc.line, k, s.labels[k], v)
			}
		}
	}
	if _, err := parsePromLine("garbage"); err == nil {
		t.Error("expected error for line without value")
	}
	if _, err := parsePromLine(`x{a="unterminated 3`); err == nil {
		t.Error("expected error for unterminated label value")
	}
}

func TestExtractHistAndQuantile(t *testing.T) {
	text := `
# HELP h request latency
# TYPE h histogram
h_bucket{route="spmv",le="0.1"} 50
h_bucket{route="spmv",le="0.5"} 90
h_bucket{route="spmv",le="+Inf"} 100
h_sum{route="spmv"} 12.5
h_count{route="spmv"} 100
h_bucket{route="upload",le="0.1"} 1
h_bucket{route="upload",le="+Inf"} 1
h_sum{route="upload"} 0.05
h_count{route="upload"} 1
`
	samples, err := parsePromText(text)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := extractHist(samples, "h", map[string]string{"route": "spmv"})
	if !ok {
		t.Fatal("spmv histogram not found")
	}
	if h.count != 100 || h.sum != 12.5 {
		t.Fatalf("count=%d sum=%v, want 100, 12.5", h.count, h.sum)
	}
	// Median rank 50 lands exactly on the first bucket boundary.
	est, lo, hi := h.quantile(0.50)
	if lo != 0 || hi != 0.1 {
		t.Errorf("p50 bracket (%v, %v], want (0, 0.1]", lo, hi)
	}
	if est <= 0 || est > 0.1 {
		t.Errorf("p50 estimate %v outside (0, 0.1]", est)
	}
	// p95: rank 95 lands in (0.5, +Inf] -> estimate clamps to the lower
	// bound of the open bucket.
	est, lo, hi = h.quantile(0.95)
	if lo != 0.5 || !math.IsInf(hi, 1) || est != 0.5 {
		t.Errorf("p95 = (%v, %v, %v), want (0.5, 0.5, +Inf)", est, lo, hi)
	}
	if _, ok := extractHist(samples, "h", map[string]string{"route": "nope"}); ok {
		t.Error("found histogram for absent route")
	}
}

func TestHistSub(t *testing.T) {
	mk := func(c1, c2, c3, count uint64, sum float64) histSnapshot {
		return histSnapshot{
			bounds: []float64{0.1, 0.5, math.Inf(1)},
			cum:    []uint64{c1, c2, c3},
			count:  count, sum: sum,
		}
	}
	d := mk(50, 90, 100, 100, 12.5).sub(mk(10, 20, 25, 25, 2.5))
	if d.count != 75 || d.sum != 10 {
		t.Fatalf("delta count=%d sum=%v, want 75, 10", d.count, d.sum)
	}
	if d.cum[0] != 40 || d.cum[1] != 70 || d.cum[2] != 75 {
		t.Fatalf("delta cum = %v", d.cum)
	}
}

func TestSampleQuantile(t *testing.T) {
	secs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := sampleQuantile(secs, 0.50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := sampleQuantile(secs, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := sampleQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestBuildCorpusDeterministic(t *testing.T) {
	a := buildCorpus(6, 200, 7)
	b := buildCorpus(6, 200, 7)
	if len(a) != 6 {
		t.Fatalf("corpus size %d, want 6", len(a))
	}
	for i := range a {
		if string(a[i].mm) != string(b[i].mm) {
			t.Errorf("matrix %d (%s) not deterministic", i, a[i].name)
		}
		if string(a[i].x) != string(b[i].x) {
			t.Errorf("x vector %d not deterministic", i)
		}
	}
	// The three generator families all appear.
	names := make([]string, len(a))
	for i, s := range a {
		names[i] = s.name
	}
	joined := strings.Join(names, " ")
	for _, fam := range []string{"banded", "grid", "rmat"} {
		if !strings.Contains(joined, fam) {
			t.Errorf("corpus %v missing family %s", names, fam)
		}
	}
}

// TestBuildCorpusDistinct: no two corpus entries share a Matrix Market
// body, so no content key is sent two different x vectors (which the
// divergence check would report as a server fault).
func TestBuildCorpusDistinct(t *testing.T) {
	for _, rows := range []int{200, 2000, 20000} {
		corpus := buildCorpus(16, rows, 7)
		seen := map[string]string{}
		for _, s := range corpus {
			if prev, dup := seen[string(s.mm)]; dup {
				t.Errorf("rows %d: %s and %s have the same Matrix Market body", rows, prev, s.name)
			}
			seen[string(s.mm)] = s.name
		}
	}
}

// TestRunAgainstServer is the end-to-end pass: a real server.Server behind
// httptest, a short zipf burst, and the full metrics cross-check. This is
// the test that keeps loadgen's scraped family names in sync with
// internal/server.
func TestRunAgainstServer(t *testing.T) {
	o := &obs.Obs{Metrics: obs.NewRegistry(), Requests: obs.NewTraceRing(64)}
	srv, err := server.New(server.Config{Threads: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		BaseURL:  ts.URL,
		Matrices: 4,
		Rows:     150,
		Rate:     80,
		Duration: 1500 * time.Millisecond,
		ZipfS:    1.3,
		Seed:     42,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CrossCheck {
		t.Fatalf("cross-check failed: %v", rep.Problems)
	}
	if len(rep.Routes) != 2 {
		t.Fatalf("got %d route reports, want 2", len(rep.Routes))
	}
	for _, rr := range rep.Routes {
		if rr.Requests == 0 {
			t.Errorf("route %s saw no requests", rr.Route)
		}
		if rr.Failures != 0 {
			t.Errorf("route %s: %d transport failures", rr.Route, rr.Failures)
		}
		if rr.Server == nil {
			t.Errorf("route %s: no server-side view", rr.Route)
			continue
		}
		if int64(rr.Server.Requests) != rr.Requests {
			t.Errorf("route %s: server %d != client %d", rr.Route, rr.Server.Requests, rr.Requests)
		}
		if len(rr.Server.Phases) == 0 {
			t.Errorf("route %s: no phase decomposition scraped", rr.Route)
		}
	}
	// The zipf burst must actually have exercised SpMV.
	var spmv *RouteReport
	for i := range rep.Routes {
		if rep.Routes[i].Route == "spmv" {
			spmv = &rep.Routes[i]
		}
	}
	if spmv == nil || spmv.Codes["200"] == 0 {
		t.Fatalf("no successful spmv requests: %+v", rep.Routes)
	}
	if _, ok := spmv.Server.Phases["spmv"]; !ok {
		t.Errorf("spmv route missing spmv phase: %v", spmv.Server.Phases)
	}

	// The report renders and round-trips as text without panicking.
	var sb strings.Builder
	rep.RenderText(&sb)
	if !strings.Contains(sb.String(), "cross-check OK") {
		t.Errorf("text report missing cross-check line:\n%s", sb.String())
	}
}

// TestRunDetectsMissingMetrics exercises the failure path: a server whose
// Obs has no metrics registry serves an empty /metrics document, so the
// cross-check must fail rather than silently pass.
func TestRunDetectsMissingMetrics(t *testing.T) {
	srv, err := server.New(server.Config{Threads: 1, Obs: &obs.Obs{}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		BaseURL:  ts.URL,
		Matrices: 2,
		Rows:     100,
		Rate:     40,
		Duration: 500 * time.Millisecond,
		Seed:     1,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrossCheck {
		t.Fatal("cross-check passed against a metrics-less server")
	}
}
