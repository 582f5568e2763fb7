// Package loadgen drives the serving daemon with open-loop,
// zipf-distributed traffic and reports client-observed tail latency
// cross-checked against the server's own histograms.
//
// The generator is open-loop: arrivals fire on a fixed schedule derived
// from the target rate, independent of completions, so a slow server
// accumulates queueing delay instead of silently throttling the offered
// load (the coordinated-omission trap of closed-loop generators). Matrix
// popularity follows a zipf distribution over a synthetic corpus uploaded
// at startup — a few hot plans that should live in cache and a long cold
// tail that churns it, the access pattern the serving cache was built for.
//
// After the run the generator scrapes /metrics twice (before and after
// the burst, diffing the cumulative histograms) and checks the server's
// view against its own: request counts must match exactly, and each
// client-side quantile must be no smaller than the lower edge of the
// server histogram bucket holding that quantile — client latency includes
// the network hop, so it can only exceed the server's measurement.
package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
	"sparseorder/internal/sparse"
)

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// Matrices is the corpus size (distinct matrices uploaded, then
	// selected by zipf rank). Default 8.
	Matrices int
	// Rows scales corpus matrix dimensions. Default 600.
	Rows int
	// Rate is the offered load in requests/second. Default 50.
	Rate float64
	// Duration is the SpMV burst length. Default 5s.
	Duration time.Duration
	// ZipfS is the zipf skew exponent (must be > 1; larger = hotter
	// head). Default 1.3.
	ZipfS float64
	// Seed fixes the corpus and the arrival/key sequence.
	Seed int64
	// MaxInFlight caps concurrent outstanding requests; open-loop
	// arrivals beyond the cap are counted as dropped rather than
	// launched, bounding generator memory when the server stalls.
	// Default 4x NumCPU, minimum 64.
	MaxInFlight int
	// Retries is how many times a 429/503 response is retried before it
	// counts as the request's outcome, honoring the server's Retry-After
	// hint with capped exponential backoff and deterministic jitter.
	// Sheds are the daemon working as designed, not client failures.
	// Default 3; negative disables retries.
	Retries int
	// RetryCap bounds a single backoff wait. Default 2s.
	RetryCap time.Duration
	// Client overrides the HTTP client (tests inject the httptest one).
	Client *http.Client
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Matrices <= 0 {
		c.Matrices = 8
	}
	if c.Rows <= 0 {
		c.Rows = 600
	}
	if c.Rate <= 0 {
		c.Rate = 50
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.3
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 2 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Report is the run's SLO summary, JSON-encodable for CI assertions.
type Report struct {
	Target     string  `json:"target"`
	Matrices   int     `json:"matrices"`
	RateRPS    float64 `json:"rate_rps"`
	DurationS  float64 `json:"duration_s"`
	ZipfS      float64 `json:"zipf_s"`
	Seed       int64   `json:"seed"`
	OfferedRPS float64 `json:"offered_rps"` // arrivals fired / duration
	Dropped    int64   `json:"dropped"`     // arrivals shed by MaxInFlight
	// RetriesTotal is the count of extra attempts issued after 429/503
	// responses across all routes.
	RetriesTotal int64    `json:"retries_total"`
	CrossCheck   bool     `json:"cross_check"` // server histograms agree
	Problems     []string `json:"problems,omitempty"`

	Routes []RouteReport `json:"routes"`
}

// RouteReport is one route's client-observed latency distribution plus
// the server-side view scraped from /metrics.
type RouteReport struct {
	Route    string           `json:"route"`
	Requests int64            `json:"requests"` // HTTP attempts, retries included
	Codes    map[string]int64 `json:"codes"`    // status code -> count
	Failures int64            `json:"failures"` // transport errors (no response)

	// Retries counts extra attempts after 429/503; Retried counts logical
	// requests that needed at least one.
	Retries int64 `json:"retries"`
	Retried int64 `json:"retried_requests"`

	// Client-observed seconds, per attempt (what the server also sees).
	P50  float64 `json:"p50_s"`
	P95  float64 `json:"p95_s"`
	P99  float64 `json:"p99_s"`
	Max  float64 `json:"max_s"`
	Mean float64 `json:"mean_s"`

	// Retry-amplified seconds, per logical request: first attempt start to
	// final response, backoff waits included — what a caller that retries
	// sheds actually waits. Identical to the per-attempt quantiles when
	// nothing retried.
	AmplifiedP50 float64 `json:"amplified_p50_s"`
	AmplifiedP95 float64 `json:"amplified_p95_s"`
	AmplifiedP99 float64 `json:"amplified_p99_s"`

	Server *ServerView `json:"server,omitempty"`
}

// ServerView is the server's own account of the run, reconstructed from
// the /metrics histogram delta between the pre- and post-run scrapes.
type ServerView struct {
	Requests uint64  `json:"requests"`
	P50      float64 `json:"p50_s"`
	P95      float64 `json:"p95_s"`
	P99      float64 `json:"p99_s"`
	Mean     float64 `json:"mean_s"`

	// Phases maps phase name -> mean seconds per request that passed
	// through it, from sparseorder_server_phase_seconds.
	Phases map[string]PhaseView `json:"phases,omitempty"`
}

// PhaseView is one phase's aggregate over the run.
type PhaseView struct {
	Count uint64  `json:"count"`
	MeanS float64 `json:"mean_s"`
}

// sample is one completed HTTP attempt observed by the client. Each retry
// is its own sample — the server's histograms also count every attempt,
// so the cross-check's exact count parity survives retries.
type sample struct {
	route   string
	seconds float64
	status  int // 0 = transport failure
}

// logicalSample is one logical request: its final status and the
// retry-amplified latency from first attempt start to final response.
type logicalSample struct {
	route   string
	seconds float64
	retries int
}

// Run executes a full load-generation pass: corpus build, uploads, the
// zipf SpMV burst, and the metrics cross-check.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.fill()
	rep := &Report{
		Target:    cfg.BaseURL,
		Matrices:  cfg.Matrices,
		RateRPS:   cfg.Rate,
		DurationS: cfg.Duration.Seconds(),
		ZipfS:     cfg.ZipfS,
		Seed:      cfg.Seed,
	}

	cfg.Logf("building corpus: %d matrices (~%d rows each), seed %d", cfg.Matrices, cfg.Rows, cfg.Seed)
	corpus := buildCorpus(cfg.Matrices, cfg.Rows, cfg.Seed)

	before, err := scrape(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: pre-run scrape: %w", err)
	}

	st := &runState{cfg: cfg, bodies: make(map[string][]byte)}

	cfg.Logf("uploading corpus")
	if err := st.upload(ctx, corpus); err != nil {
		return nil, err
	}

	cfg.Logf("zipf burst: %.0f req/s for %v (s=%.2f)", cfg.Rate, cfg.Duration, cfg.ZipfS)
	st.burst(ctx, corpus)

	after, err := scrape(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: post-run scrape: %w", err)
	}

	rep.Dropped = st.dropped
	if d := cfg.Duration.Seconds(); d > 0 {
		rep.OfferedRPS = float64(st.launched) / d
	}
	rep.Problems = st.problems
	st.summarize(rep, before, after)
	return rep, nil
}

// matrixSpec is one corpus entry.
type matrixSpec struct {
	name string
	mm   []byte // Matrix Market body, uploaded verbatim
	x    []byte // pre-marshalled {"x":[...]} request body
	key  string // content-hash key returned by the upload
	rows int
}

// buildCorpus generates a deterministic mixed corpus: banded (the
// cache-friendly case), 2-D grids (the mesh case), and R-MAT power-law
// graphs (the skewed case the orderings struggle with). Rank 0 — the zipf
// head — is the cheapest banded matrix so the hot path exercises cache
// hits rather than dominating runtime.
func buildCorpus(n, rows int, seed int64) []*matrixSpec {
	specs := make([]*matrixSpec, 0, n)
	for i := 0; i < n; i++ {
		var (
			a    *sparse.CSR
			name string
		)
		switch i % 3 {
		case 0:
			a = gen.Banded(rows+i*7, 4, 0.9, seed+int64(i))
			name = fmt.Sprintf("banded-%d", i)
		case 1:
			// One side per grid entry: each content key must be sent one
			// x only, or the responses of two entries would "diverge".
			side := intSqrt(rows) + i/3
			a = gen.Grid2D(side, side)
			name = fmt.Sprintf("grid-%d", i)
		default:
			scale := log2Floor(rows)
			a = gen.RMAT(scale, 4, seed+int64(i))
			name = fmt.Sprintf("rmat-%d", i)
		}
		var mm bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, a); err != nil {
			// Generators produce valid CSR and the writer only fails on I/O;
			// a bytes.Buffer cannot.
			panic(err)
		}
		x := make([]float64, a.Rows)
		rng := rand.New(rand.NewSource(seed ^ int64(i)*0x9e3779b9))
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		body, err := json.Marshal(struct {
			X []float64 `json:"x"`
		}{X: x})
		if err != nil {
			panic(err)
		}
		specs = append(specs, &matrixSpec{name: name, mm: mm.Bytes(), x: body, rows: a.Rows})
	}
	return specs
}

func intSqrt(n int) int {
	r := int(math.Sqrt(float64(n)))
	if r < 2 {
		r = 2
	}
	return r
}

func log2Floor(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	if l < 4 {
		l = 4
	}
	return l
}

// runState accumulates one run's client-side observations.
type runState struct {
	cfg Config

	mu       sync.Mutex
	samples  []sample
	logical  []logicalSample
	bodies   map[string][]byte // matrix key -> first successful y-body hash
	problems []string

	launched   int64
	dropped    int64
	reqSeq     uint64
	logicalSeq uint64
}

func (st *runState) problemf(format string, args ...any) {
	st.mu.Lock()
	if len(st.problems) < 32 {
		st.problems = append(st.problems, fmt.Sprintf(format, args...))
	}
	st.mu.Unlock()
}

func (st *runState) record(s sample) {
	st.mu.Lock()
	st.samples = append(st.samples, s)
	st.mu.Unlock()
}

// nextID mints a client-chosen request id so the echo contract is
// exercised on every request.
func (st *runState) nextID() string {
	st.mu.Lock()
	st.reqSeq++
	n := st.reqSeq
	st.mu.Unlock()
	return fmt.Sprintf("lg-%d-%d", st.cfg.Seed, n)
}

// do issues one HTTP attempt, records the client-observed latency sample,
// and verifies the X-Request-Id echo. Returns the status, the response
// body (nil on transport failure) and the parsed Retry-After hint, if the
// server sent one.
func (st *runState) do(ctx context.Context, route, method, url string, body []byte) (int, []byte, time.Duration) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		st.problemf("%s: build request: %v", route, err)
		return 0, nil, 0
	}
	id := st.nextID()
	req.Header.Set(obs.RequestIDHeader, id)
	t0 := time.Now()
	resp, err := st.cfg.Client.Do(req)
	sec := time.Since(t0).Seconds()
	if err != nil {
		st.record(sample{route: route, seconds: sec, status: 0})
		if ctx.Err() == nil {
			st.problemf("%s: %v", route, err)
		}
		return 0, nil, 0
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// Latency includes reading the body: that is what a client experiences.
	sec = time.Since(t0).Seconds()
	st.record(sample{route: route, seconds: sec, status: resp.StatusCode})
	if got := resp.Header.Get(obs.RequestIDHeader); got != id {
		st.problemf("%s: request id not echoed: sent %q got %q", route, id, got)
	}
	var retryAfter time.Duration
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, payload, retryAfter
}

// retryBase is the first backoff step; each retry doubles it up to
// Config.RetryCap.
const retryBase = 100 * time.Millisecond

// doRetry issues one logical request, retrying 429/503 responses — the
// daemon shedding load as designed — up to cfg.Retries times. The wait
// before each retry honors the server's Retry-After hint, never sleeping
// less than it, under capped exponential backoff plus deterministic
// jitter (a pure function of seed, request sequence and attempt, so two
// runs with one seed replay byte-identical schedules and concurrent
// retriers still decorrelate). Every attempt is recorded as its own
// latency sample; the logical request's amplified latency — first attempt
// start to final response, waits included — is recorded separately.
func (st *runState) doRetry(ctx context.Context, route, method, url string, body []byte) (int, []byte) {
	t0 := time.Now()
	seq := st.seqFor(route)
	var status int
	var payload []byte
	retries := 0
	for {
		var ra time.Duration
		status, payload, ra = st.do(ctx, route, method, url, body)
		if (status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable) ||
			retries >= st.cfg.Retries || ctx.Err() != nil {
			break
		}
		retries++
		wait := retryBase << (retries - 1)
		if wait > st.cfg.RetryCap {
			wait = st.cfg.RetryCap
		}
		if ra > wait {
			wait = ra
			if wait > st.cfg.RetryCap {
				wait = st.cfg.RetryCap
			}
		}
		// Up to +25% deterministic jitter so synchronized sheds don't
		// retry in lockstep.
		wait += time.Duration(jitterFrac(st.cfg.Seed, seq, retries) * float64(wait) * 0.25)
		select {
		case <-ctx.Done():
			return status, payload
		case <-time.After(wait):
		}
	}
	st.mu.Lock()
	st.logical = append(st.logical, logicalSample{
		route: route, seconds: time.Since(t0).Seconds(), retries: retries,
	})
	st.mu.Unlock()
	return status, payload
}

// seqFor returns a per-logical-request sequence number for jitter
// derivation, without consuming a request id.
func (st *runState) seqFor(string) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.logicalSeq++
	return st.logicalSeq
}

// jitterFrac maps (seed, seq, attempt) to [0, 1) with a splitmix64 round:
// deterministic for replay, decorrelated across requests and attempts.
func jitterFrac(seed int64, seq uint64, attempt int) float64 {
	z := uint64(seed) ^ (seq * 0x9e3779b97f4a7c15) ^ (uint64(attempt) << 32)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// upload pushes the whole corpus (a few at a time) and records each
// matrix's content-hash key.
func (st *runState) upload(ctx context.Context, corpus []*matrixSpec) error {
	workers := 4
	if workers > len(corpus) {
		workers = len(corpus)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, spec := range corpus {
		wg.Add(1)
		sem <- struct{}{}
		go func(spec *matrixSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			status, body := st.doRetry(ctx, "upload", http.MethodPost, st.cfg.BaseURL+"/matrices", spec.mm)
			if status != http.StatusOK {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("loadgen: upload %s: status %d: %s", spec.name, status, truncate(body, 200))
				}
				mu.Unlock()
				return
			}
			var ur struct {
				Key string `json:"key"`
			}
			if err := json.Unmarshal(body, &ur); err != nil || ur.Key == "" {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("loadgen: upload %s: bad response %s", spec.name, truncate(body, 200))
				}
				mu.Unlock()
				return
			}
			spec.key = ur.Key
		}(spec)
	}
	wg.Wait()
	return firstErr
}

// burst runs the open-loop SpMV phase: arrivals fire whenever the wall
// clock says they are due (catching up in batches if the scheduler falls
// behind), each selecting a matrix by zipf rank. Responses for the same
// matrix must be byte-identical — the first success pins the expected
// digest and later divergence is reported.
func (st *runState) burst(ctx context.Context, corpus []*matrixSpec) {
	rng := rand.New(rand.NewSource(st.cfg.Seed))
	zipf := rand.NewZipf(rng, st.cfg.ZipfS, 1, uint64(len(corpus)-1))

	tick := time.Duration(float64(time.Second) / st.cfg.Rate)
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	sem := make(chan struct{}, st.cfg.MaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(st.cfg.Duration)

loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case now := <-ticker.C:
			if now.After(deadline) {
				break loop
			}
			due := int64(now.Sub(start).Seconds() * st.cfg.Rate)
			for st.launched+st.dropped < due {
				spec := corpus[zipf.Uint64()]
				select {
				case sem <- struct{}{}:
				default:
					st.dropped++
					continue
				}
				st.launched++
				wg.Add(1)
				go func(spec *matrixSpec) {
					defer wg.Done()
					defer func() { <-sem }()
					st.spmv(ctx, spec)
				}(spec)
			}
		}
	}
	wg.Wait()
}

// spmv issues one multiply and checks cross-request determinism: every
// successful response for the same matrix must hash identically.
func (st *runState) spmv(ctx context.Context, spec *matrixSpec) {
	status, body := st.doRetry(ctx, "spmv", http.MethodPost, st.cfg.BaseURL+"/spmv/"+spec.key, spec.x)
	if status != http.StatusOK {
		return
	}
	sum := sha256.Sum256(body)
	st.mu.Lock()
	prev, seen := st.bodies[spec.key]
	if !seen {
		st.bodies[spec.key] = sum[:]
	}
	st.mu.Unlock()
	if seen && !bytes.Equal(prev, sum[:]) {
		st.problemf("spmv %s: response diverged across requests", spec.key)
	}
}

// scrape fetches and parses /metrics.
func scrape(ctx context.Context, cfg Config) ([]promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parsePromText(string(text))
}

// summarize folds client samples and the scrape delta into the report and
// runs the cross-check.
func (st *runState) summarize(rep *Report, before, after []promSample) {
	byRoute := map[string][]sample{}
	logicalByRoute := map[string][]logicalSample{}
	st.mu.Lock()
	for _, s := range st.samples {
		byRoute[s.route] = append(byRoute[s.route], s)
	}
	for _, s := range st.logical {
		logicalByRoute[s.route] = append(logicalByRoute[s.route], s)
	}
	st.mu.Unlock()

	rep.CrossCheck = true
	for _, route := range []string{"upload", "spmv"} {
		samples := byRoute[route]
		rr := RouteReport{Route: route, Codes: map[string]int64{}}
		var secs []float64
		var responded int64
		for _, s := range samples {
			rr.Requests++
			if s.status == 0 {
				rr.Failures++
				continue
			}
			responded++
			rr.Codes[strconv.Itoa(s.status)]++
			secs = append(secs, s.seconds)
		}
		sort.Float64s(secs)
		rr.P50 = sampleQuantile(secs, 0.50)
		rr.P95 = sampleQuantile(secs, 0.95)
		rr.P99 = sampleQuantile(secs, 0.99)
		if n := len(secs); n > 0 {
			rr.Max = secs[n-1]
			var sum float64
			for _, v := range secs {
				sum += v
			}
			rr.Mean = sum / float64(n)
		}

		var ampl []float64
		for _, ls := range logicalByRoute[route] {
			rr.Retries += int64(ls.retries)
			if ls.retries > 0 {
				rr.Retried++
			}
			ampl = append(ampl, ls.seconds)
		}
		sort.Float64s(ampl)
		rr.AmplifiedP50 = sampleQuantile(ampl, 0.50)
		rr.AmplifiedP95 = sampleQuantile(ampl, 0.95)
		rr.AmplifiedP99 = sampleQuantile(ampl, 0.99)
		rep.RetriesTotal += rr.Retries

		sv, ok := serverView(before, after, route)
		if ok {
			rr.Server = sv
			st.checkRoute(rep, &rr, before, after)
		} else if responded > 0 {
			rep.CrossCheck = false
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("%s: no %s series on /metrics", route, metricRequestSeconds))
		}
		rep.Routes = append(rep.Routes, rr)
	}
	if len(st.problems) > 0 {
		rep.CrossCheck = false
	}
}

// Metric family names scraped from the daemon; kept in sync with
// internal/server by the loadgen integration test.
const (
	metricRequestSeconds = "sparseorder_server_request_seconds"
	metricPhaseSeconds   = "sparseorder_server_phase_seconds"
)

// serverView reconstructs one route's server-side latency view from the
// scrape delta.
func serverView(before, after []promSample, route string) (*ServerView, bool) {
	want := map[string]string{"route": route}
	h1, ok := extractHist(after, metricRequestSeconds, want)
	if !ok {
		return nil, false
	}
	h0, _ := extractHist(before, metricRequestSeconds, want)
	h := h1.sub(h0)
	sv := &ServerView{Requests: h.count, Phases: map[string]PhaseView{}}
	sv.P50, _, _ = h.quantile(0.50)
	sv.P95, _, _ = h.quantile(0.95)
	sv.P99, _, _ = h.quantile(0.99)
	if h.count > 0 {
		sv.Mean = h.sum / float64(h.count)
	}
	for _, ph := range []string{"queue_wait", "governor_wait", "decode", "reorder", "plan_build", "spmv", "store_write", "encode"} {
		pw := map[string]string{"route": route, "phase": ph}
		p1, ok := extractHist(after, metricPhaseSeconds, pw)
		if !ok {
			continue
		}
		p0, _ := extractHist(before, metricPhaseSeconds, pw)
		pd := p1.sub(p0)
		if pd.count == 0 {
			continue
		}
		sv.Phases[ph] = PhaseView{Count: pd.count, MeanS: pd.sum / float64(pd.count)}
	}
	return sv, true
}

// checkRoute verifies the server's account against the client's:
// counts must match exactly (every response the client got corresponds to
// one finished request the server recorded), and each client quantile
// must be at least the lower edge of the server bucket holding the same
// quantile — the client pays the network on top of server time, so being
// below that bracket means the histograms and samples disagree.
func (st *runState) checkRoute(rep *Report, rr *RouteReport, before, after []promSample) {
	responded := rr.Requests - rr.Failures
	if int64(rr.Server.Requests) != responded {
		rep.CrossCheck = false
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"%s: server recorded %d requests, client received %d responses",
			rr.Route, rr.Server.Requests, responded))
	}
	want := map[string]string{"route": rr.Route}
	h1, _ := extractHist(after, metricRequestSeconds, want)
	h0, _ := extractHist(before, metricRequestSeconds, want)
	h := h1.sub(h0)
	for _, q := range []struct {
		q      float64
		client float64
	}{{0.50, rr.P50}, {0.95, rr.P95}, {0.99, rr.P99}} {
		if h.count == 0 {
			break
		}
		_, lo, _ := h.quantile(q.q)
		// 1ms slack absorbs timer granularity at the microsecond scale.
		if q.client+0.001 < lo {
			rep.CrossCheck = false
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"%s: client p%d %.6fs below server histogram lower bound %.6fs",
				rr.Route, int(q.q*100), q.client, lo))
		}
	}
}

// sampleQuantile returns the q-quantile of ascending sorted secs using
// the nearest-rank method.
func sampleQuantile(secs []float64, q float64) float64 {
	if len(secs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(secs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(secs) {
		i = len(secs) - 1
	}
	return secs[i]
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// RenderText writes the human-readable report.
func (r *Report) RenderText(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %s  rate=%.0f/s dur=%.1fs zipf_s=%.2f corpus=%d seed=%d\n",
		r.Target, r.RateRPS, r.DurationS, r.ZipfS, r.Matrices, r.Seed)
	fmt.Fprintf(w, "offered %.1f req/s, %d dropped by in-flight cap, %d retries after sheds\n",
		r.OfferedRPS, r.Dropped, r.RetriesTotal)
	for _, rt := range r.Routes {
		fmt.Fprintf(w, "\n%-6s  %d requests (%d transport failures)\n", rt.Route, rt.Requests, rt.Failures)
		if rt.Retries > 0 {
			fmt.Fprintf(w, "        %d retries across %d requests; amplified p50 %8.3fms  p95 %8.3fms  p99 %8.3fms\n",
				rt.Retries, rt.Retried, rt.AmplifiedP50*1e3, rt.AmplifiedP95*1e3, rt.AmplifiedP99*1e3)
		}
		var codes []string
		for c, n := range rt.Codes {
			codes = append(codes, fmt.Sprintf("%s:%d", c, n))
		}
		sort.Strings(codes)
		if len(codes) > 0 {
			fmt.Fprintf(w, "        status %s\n", strings.Join(codes, " "))
		}
		fmt.Fprintf(w, "        client p50 %8.3fms  p95 %8.3fms  p99 %8.3fms  max %8.3fms\n",
			rt.P50*1e3, rt.P95*1e3, rt.P99*1e3, rt.Max*1e3)
		if sv := rt.Server; sv != nil {
			fmt.Fprintf(w, "        server p50 %8.3fms  p95 %8.3fms  p99 %8.3fms  (%d requests)\n",
				sv.P50*1e3, sv.P95*1e3, sv.P99*1e3, sv.Requests)
			var phases []string
			for name := range sv.Phases {
				phases = append(phases, name)
			}
			sort.Slice(phases, func(i, j int) bool {
				return sv.Phases[phases[i]].MeanS*float64(sv.Phases[phases[i]].Count) >
					sv.Phases[phases[j]].MeanS*float64(sv.Phases[phases[j]].Count)
			})
			for _, name := range phases {
				p := sv.Phases[name]
				fmt.Fprintf(w, "        phase %-13s mean %8.3fms  x%d\n", name, p.MeanS*1e3, p.Count)
			}
		}
	}
	if r.CrossCheck {
		fmt.Fprintf(w, "\ncross-check OK: server histograms agree with client observations\n")
	} else {
		fmt.Fprintf(w, "\ncross-check FAILED:\n")
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  - %s\n", p)
		}
	}
}
