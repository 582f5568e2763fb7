package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/sparse"
)

// serveWorkload fixes one serving workload's traffic and daemon.
type serveWorkload struct {
	name   string
	corpus func(seed int64) []gen.Matrix
	// rate is the open-loop reference rate in requests per second; 0 means
	// the workload has no open-loop window and its wall-clock latency
	// figures come from the batch chunks (medians over chunks of each
	// chunk's statistic).
	rate  float64
	zipfS float64
	// subWindows splits the open-loop window into this many consecutive
	// parts; the wall-clock latency figures are medians over the parts, so
	// a burst of host noise in one part does not move them.
	subWindows int
	// batchChunks closed-loop chunks of reads give batch_cpu_s
	// (batchClients clients, each sending its next read on completion):
	// the chunk count times the median chunk's daemon CPU time.
	// batchChunk(seed, i) is chunk i's reads. With one client each read's
	// daemon CPU time is measured on its own and op_cpu_ms is the median
	// read's; with more, op_cpu_ms is the median chunk's per read.
	batchChunks  int
	batchClients int
	batchChunk   func(seed int64, i, keys int) []request
	batchDesc    string
	// warm is how many of the hottest matrices set-up uploads.
	warm  int
	flags func(e *env) []string
	// reupload makes a 404 re-upload the matrix and retry, as a client
	// of a daemon with evictions must.
	reupload bool
}

// maxLateMs is the generator lateness (p99, due to send) past which a
// run is invalid: beyond it the client, not the daemon, sets the
// latencies, so the run exits with an error instead of a result.
const maxLateMs = 50

// serveSetups is how many times a run sets up (corpus, daemon, warm
// uploads); setup_s is the median set-up's CPU time (this process and the
// daemon), and the last set-up is measured.
const serveSetups = 5

// churnCache is serve-churn's -cache-entries, a quarter of its corpus.
const churnCache = 16

var serveWarm = serveWorkload{
	name: "serve-warm", corpus: serveWarmCorpus,
	rate: 200, zipfS: 1.1, subWindows: 4, warm: 16,
	// One client, so that each read's daemon CPU time can be read on its
	// own: the daemon serves nothing else while a read is in flight.
	batchChunks: 10, batchClients: 1,
	batchChunk: func(seed int64, i, keys int) []request {
		return schedule(seed+1+int64(i), 150, 1, 1.1, keys)
	},
	batchDesc: "10 chunks of 150 zipf reads, back to back over one connection",
	flags: func(e *env) []string {
		return []string{"-threads", strconv.Itoa(runtime.NumCPU()), "-cache-entries", "64", "-membudget", "off"}
	},
}

var serveChurn = serveWorkload{
	name: "serve-churn", corpus: serveChurnCorpus,
	warm: churnCache, reupload: true,
	batchChunks: 5, batchClients: runtime.NumCPU(),
	batchChunk: func(seed int64, i, keys int) []request {
		// A scan in popularity order that starts past the warm uploads.
		// Under LRU each key was last uploaded a whole scan (keys reads)
		// before it is read again, more than the cache holds, so every
		// read misses and each scan is a fixed amount of upload-path work.
		reqs := make([]request, keys)
		for k := range reqs {
			entry := (k + churnCache) % keys
			reqs[k] = request{entry: entry, x: (entry + i) % 2}
		}
		return reqs
	},
	batchDesc: "5 scans over the corpus in popularity order (every read misses and re-uploads), back to back over nproc connections",
	flags: func(e *env) []string {
		return []string{"-threads", strconv.Itoa(runtime.NumCPU()), "-cache-entries", strconv.Itoa(churnCache),
			"-membudget", "off", "-store", filepath.Join(e.scratch, "store")}
	},
}

func runServeWarm(e *env) error  { return runServe(e, serveWarm) }
func runServeChurn(e *env) error { return runServe(e, serveChurn) }

// serveWarmCorpus is 16 matrices of 1k to 16k rows, geometrically spaced,
// cycling through banded, scrambled 2-D mesh, R-MAT and random geometric
// structure. Index order is popularity order (the zipf head is the
// smallest), so the size mix of the traffic is the same for every seed.
func serveWarmCorpus(seed int64) []gen.Matrix {
	var ms []gen.Matrix
	for i := 0; i < 16; i++ {
		rows := int(1024 * math.Pow(16, float64(i)/15))
		ms = append(ms, familyMatrix(i, rows, seed))
	}
	return ms
}

// serveChurnCorpus is 64 matrices of about 30k to 60k nonzeros in the
// same four families, smallest first. The narrow size range keeps the
// cost of a miss nearly independent of which key missed.
func serveChurnCorpus(seed int64) []gen.Matrix {
	var ms []gen.Matrix
	for i := 0; i < 64; i++ {
		nnz := 30000 * math.Pow(2, float64(i)/63)
		perRow := []float64{9, 5, 17, 9}[i%4]
		ms = append(ms, familyMatrix(i, int(nnz/perRow), seed))
	}
	return ms
}

// familyMatrix builds corpus entry i with about rows rows; the family
// cycles with i.
func familyMatrix(i, rows int, seed int64) gen.Matrix {
	s := seed*1000 + int64(i)
	switch i % 4 {
	case 0:
		return gen.Matrix{Name: fmt.Sprintf("banded-%d", i), A: gen.Banded(rows, 8, 0.5, s)}
	case 1:
		side := int(math.Sqrt(float64(rows)))
		return gen.Matrix{Name: fmt.Sprintf("mesh2d-perm-%d", i), A: gen.Scramble(gen.Grid2D(side, side+i%3), s)}
	case 2:
		scale := int(math.Round(math.Log2(float64(rows))))
		return gen.Matrix{Name: fmt.Sprintf("rmat-%d", i), A: gen.RMAT(scale, 8, s)}
	default:
		return gen.Matrix{Name: fmt.Sprintf("geometric-%d", i),
			A: gen.RandomGeometric(rows, math.Sqrt(8/(math.Pi*float64(rows))), s)}
	}
}

// corpusEntry is one matrix as the client holds it: the Matrix Market
// body it uploads, its content key, and the x vectors it sends.
type corpusEntry struct {
	name string
	a    *sparse.CSR
	mm   []byte
	key  string
	xs   [2]*xvec
}

// xvec is one request vector with its oracle: the first 200 for each
// (key, x) is decoded and checked against the serial product, then its
// SHA-256 is pinned and later bodies must match it byte for byte.
type xvec struct {
	body   []byte
	digest string
	ref    *reference

	mu     sync.Mutex
	pinned []byte
}

func buildCorpus(ms []gen.Matrix, seed int64) ([]*corpusEntry, error) {
	keys := map[string]string{}
	var out []*corpusEntry
	for i, m := range ms {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, m.A); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		ce := &corpusEntry{name: m.Name, a: m.A, mm: buf.Bytes(), key: hex.EncodeToString(sum[:])}
		// Corpus hygiene: two entries with one content key would be one
		// daemon entry answering two clients' different expectations.
		if prev, dup := keys[ce.key]; dup {
			return nil, fmt.Errorf("corpus entries %s and %s have the same content key", prev, m.Name)
		}
		keys[ce.key] = m.Name
		for j := range ce.xs {
			x := randomVector(m.A.Cols, seed*7919+int64(i)*2+int64(j))
			body, err := json.Marshal(struct {
				X []float64 `json:"x"`
			}{x})
			if err != nil {
				return nil, err
			}
			ref, err := newReference(m.A, x)
			if err != nil {
				return nil, err
			}
			d := sha256.Sum256(body)
			ce.xs[j] = &xvec{body: body, digest: hex.EncodeToString(d[:8]), ref: ref}
		}
		out = append(out, ce)
	}
	return out, nil
}

// verify applies the (key, x) oracle to a 200 body.
func (xv *xvec) verify(body []byte) error {
	sum := sha256.Sum256(body)
	xv.mu.Lock()
	defer xv.mu.Unlock()
	if xv.pinned != nil {
		if !bytes.Equal(sum[:], xv.pinned) {
			return fmt.Errorf("x %s: %d-byte body differs from the pinned answer", xv.digest, len(body))
		}
		return nil
	}
	var resp struct {
		Y []float64 `json:"y"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("x %s: undecodable %d-byte body: %v", xv.digest, len(body), err)
	}
	if err := xv.ref.check(resp.Y); err != nil {
		return fmt.Errorf("x %s: %v", xv.digest, err)
	}
	xv.pinned = sum[:]
	return nil
}

// request is one scheduled read: which matrix and vector, and when it is
// due relative to the start of the window.
type request struct {
	entry int
	x     int
	due   time.Duration
}

// schedule is the open-loop arrival plan: n requests evenly spaced at
// rate. Popularity rank k gets its zipf share n·P(k), P(k) ∝ (1+k)^-s
// (the law rand.NewZipf draws from), rounded by largest remainder; the
// seed shuffles their order and picks each request's x. Fixing the counts
// keeps the mix of matrix sizes the same for every seed, so seeds vary
// the order and content, not the amount of work.
func schedule(seed int64, n int, rate, s float64, keys int) []request {
	counts := zipfCounts(n, s, keys)
	reqs := make([]request, 0, n)
	for k, c := range counts {
		for j := 0; j < c; j++ {
			reqs = append(reqs, request{entry: k})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for i := range reqs {
		reqs[i].x = rng.Intn(2)
		reqs[i].due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return reqs
}

// zipfCounts splits n over keys ranks in proportion to (1+k)^-s.
func zipfCounts(n int, s float64, keys int) []int {
	w := make([]float64, keys)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(1+k), -s)
		total += w[k]
	}
	counts := make([]int, keys)
	rem := make([]int, keys)
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		w[k] = exact - float64(counts[k])
		rem[k] = k
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for _, k := range rem[:left] {
		counts[k]++
	}
	return counts
}

// outcome is what one read cost the client.
type outcome struct {
	latency time.Duration // due → verified final answer
	queued  time.Duration // due → first byte sent
	// lag is the generator's own lateness: send time minus the later of
	// the due time and the moment a connection was free.
	lag       time.Duration
	verify    time.Duration
	daemonCPU float64 // seconds; measured in one-client closed loops only
	firstHit  bool    // the first attempt was a 200
	reuploads int
	// exchanges lists the HTTP exchanges the read needed.
	exchanges []exchange
	err       error
	// wrong marks an answer that failed the oracle, as opposed to a
	// transport error or an error status.
	wrong bool
}

type exchange struct {
	route  string // "spmv" or "upload"
	entry  int
	status int
	dur    time.Duration
}

// client sends the benchmark's requests; at most nproc connections.
type client struct {
	http   *http.Client
	base   string
	corpus []*corpusEntry
	reup   bool
	// pid, when set, is the daemon whose CPU clock one-client closed loops
	// read around each read.
	pid int
	// tr, when set, receives each read's client-side spans.
	tr *tracer
}

func newClient(base string, corpus []*corpusEntry, reupload bool) *client {
	n := runtime.NumCPU()
	return &client{
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
			},
		},
		base: base, corpus: corpus, reup: reupload,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) post(ctx context.Context, path string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(start), err
}

// upload sends entry i's Matrix Market body and checks the returned key.
func (c *client) upload(ctx context.Context, i int) (exchange, error) {
	ce := c.corpus[i]
	status, body, d, err := c.post(ctx, "/matrices", ce.mm)
	ex := exchange{route: "upload", entry: i, status: status, dur: d}
	if err != nil {
		return ex, fmt.Errorf("upload %s: %w", ce.name, err)
	}
	if status != http.StatusOK {
		return ex, fmt.Errorf("upload %s: status %d: %.200s", ce.name, status, body)
	}
	var r struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.Key != ce.key {
		return ex, fmt.Errorf("upload %s: key %q, want %s (%v)", ce.name, r.Key, ce.key, err)
	}
	return ex, nil
}

// read performs one scheduled SpMV read, re-uploading and retrying on a
// 404 when the workload allows it, and verifies the final answer. ready
// is the later of the due time and the moment a connection was free.
func (c *client) read(ctx context.Context, r request, due, ready time.Time) outcome {
	var o outcome
	o.queued, o.lag = time.Since(due), time.Since(ready)
	ce := c.corpus[r.entry]
	xv := ce.xs[r.x]
	for attempt := 0; ; attempt++ {
		status, body, d, err := c.post(ctx, "/spmv/"+ce.key, xv.body)
		o.exchanges = append(o.exchanges, exchange{route: "spmv", entry: r.entry, status: status, dur: d})
		if err != nil {
			o.err = fmt.Errorf("spmv %s: %w", ce.name, err)
			break
		}
		if status == http.StatusNotFound && c.reup && attempt < 3 {
			ex, err := c.upload(ctx, r.entry)
			o.exchanges = append(o.exchanges, ex)
			o.reuploads++
			if err != nil {
				o.err = err
				break
			}
			continue
		}
		if status != http.StatusOK {
			o.err = fmt.Errorf("spmv %s: status %d: %.200s", ce.name, status, body)
			break
		}
		o.firstHit = attempt == 0
		vs := time.Now()
		if err := xv.verify(body); err != nil {
			o.err, o.wrong = fmt.Errorf("spmv %s: %w", ce.name, err), true
		}
		o.verify = time.Since(vs)
		break
	}
	o.latency = time.Since(due)
	if c.tr != nil {
		traceRead(c.tr, due, &o)
	}
	return o
}

// openLoop sends reqs on their schedule from nproc goroutines: each takes
// the next request, waits for its due time and sends it, so a stall
// makes later requests late and that lateness counts in their latency.
func (c *client) openLoop(ctx context.Context, reqs []request) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				due, ready := start.Add(reqs[i].due), time.Now()
				if ready.Before(due) {
					time.Sleep(time.Until(due))
					ready = due
				}
				out[i] = c.read(ctx, reqs[i], due, ready)
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(reqs))]
}

// closedLoop sends reqs back to back from clients goroutines and returns
// the wall time.
func (c *client) closedLoop(ctx context.Context, reqs []request, clients int) ([]outcome, float64) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				var c0 float64
				if clients == 1 && c.pid != 0 {
					c0, _ = pidCPU(c.pid)
				}
				now := time.Now()
				out[i] = c.read(ctx, reqs[i], now, now)
				if clients == 1 && c.pid != 0 {
					c1, _ := pidCPU(c.pid)
					out[i].daemonCPU = c1 - c0
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// serveSetup is one set-up: corpus generation, daemon start to ready,
// and the warm uploads. cpu is the CPU time it took this process and the
// daemon, in seconds.
type serveSetup struct {
	corpus []*corpusEntry
	d      *daemon
	cpu    float64
}

func setupServe(e *env, w serveWorkload, i int) (*serveSetup, error) {
	cpu0 := processCPU()
	corpus, err := buildCorpus(w.corpus(e.seed), e.seed)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(filepath.Join(e.scratch, "store")); err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.scratch, "serve-"+strconv.Itoa(i)+".log")
	d, err := startDaemon(e.ctx, e.serveBin, logPath, w.flags(e))
	if err != nil {
		return nil, err
	}
	c := newClient(d.base, corpus, w.reupload)
	defer c.close()
	for k := 0; k < w.warm && k < len(corpus); k++ {
		if _, err := c.upload(e.ctx, k); err != nil {
			d.stop()
			return nil, err
		}
	}
	daemonCPU, err := pidCPU(d.cmd.Process.Pid)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("daemon CPU clock: %w", err)
	}
	return &serveSetup{corpus: corpus, d: d, cpu: processCPU() - cpu0 + daemonCPU}, nil
}

func runServe(e *env, w serveWorkload) error {
	var setups []float64
	var s *serveSetup
	for i := 0; i < serveSetups; i++ {
		if s != nil {
			if _, err := s.d.stop(); err != nil {
				return fmt.Errorf("stop daemon: %w", err)
			}
		}
		var err error
		if s, err = setupServe(e, w, i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s.cpu)
	}
	stopped := false
	defer func() {
		if !stopped {
			s.d.stop()
		}
	}()
	e.e2e["setup_s"] = median(setups)
	e.rec.Config["setup_cpu_seconds"] = setups
	e.rec.Config["daemon_flags"] = s.d.flags
	e.rec.Config["connections"] = runtime.NumCPU()
	e.rec.Config["warm_uploads"] = w.warm
	e.rec.Config["tolerance"] = relTol
	e.rec.Config["batch"] = w.batchDesc
	for _, ce := range s.corpus {
		e.rec.Matrices = append(e.rec.Matrices, matrixInfo{Name: ce.name, Rows: ce.a.Rows, NNZ: ce.a.NNZ(),
			WorkingSetBytes: workingSet(ce.a.Rows, ce.a.Cols, ce.a.NNZ())})
	}

	c := newClient(s.d.base, s.corpus, w.reupload)
	c.pid = s.d.cmd.Process.Pid
	defer c.close()
	before, err := scrape(c.http, s.d.base)
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	var window readStats
	if w.rate > 0 {
		if window, err = openLoopWindow(e, w, s, c); err != nil {
			return err
		}
	}

	// The batch: closed-loop chunks, each timed as a whole on the wall
	// clock and on the daemon's CPU clock.
	// peak_rss_mb is the median over chunks of the daemon's peak resident
	// set during the chunk: a peak over a whole run depends on where the
	// garbage collector happened to run and moved by a fifth between runs.
	var walls, cpus, peaks []float64
	var chunks [][]float64
	var batch []outcome
	for i := 0; i < w.batchChunks; i++ {
		chunk := w.batchChunk(e.seed, i, len(s.corpus))
		if err := s.d.resetPeak(); err != nil {
			return fmt.Errorf("reset daemon peak RSS: %w", err)
		}
		c0, err := pidCPU(c.pid)
		if err != nil {
			return fmt.Errorf("daemon CPU clock: %w", err)
		}
		outs, wall := c.closedLoop(e.ctx, chunk, w.batchClients)
		if err := e.ctx.Err(); err != nil {
			return err
		}
		c1, err := pidCPU(c.pid)
		if err != nil {
			return fmt.Errorf("daemon CPU clock: %w", err)
		}
		cpus = append(cpus, c1-c0)
		peak, err := s.d.peakMiB()
		if err != nil {
			return fmt.Errorf("daemon peak RSS: %w", err)
		}
		peaks = append(peaks, peak)
		tally(e, outs)
		chunks = append(chunks, summarize(outs).lat)
		walls = append(walls, wall)
		batch = append(batch, outs...)
	}
	after, err := scrape(c.http, s.d.base)
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	e.rec.Config["batch_chunk_seconds"] = walls
	e.rec.Config["batch_chunk_daemon_cpu_seconds"] = cpus
	e.rec.Config["batch_chunk_peak_rss_mb"] = peaks
	e.e2e["peak_rss_mb"] = median(peaks)
	e.e2e["batch_cpu_s"] = float64(w.batchChunks) * median(cpus)
	batchWall := float64(w.batchChunks) * median(walls)
	e.rec.Named["batch_wall_s"] = batchWall
	e.rec.Named["closed_loop_rps"] = float64(len(batch)) / batchWall
	n := len(batch) / w.batchChunks // reads per chunk
	if w.batchClients == 1 {
		reads := make([]float64, len(batch))
		for i, o := range batch {
			reads[i] = o.daemonCPU
		}
		e.e2e["op_cpu_ms"] = median(reads) * 1e3
		e.rec.Config["op_cpu"] = "the daemon's CPU time for one read of the batch, median over the batch's reads"
	} else {
		perRead := make([]float64, len(cpus))
		for i, v := range cpus {
			perRead[i] = v / float64(n)
		}
		e.e2e["op_cpu_ms"] = median(perRead) * 1e3
		e.rec.Config["op_cpu"] = "the daemon's CPU time per read of a chunk, median over chunks"
	}
	bst := summarize(batch)
	e.rec.Named["cache_hit_ratio"] = bst.hitRatio
	e.rec.Named["reuploads"] = float64(bst.reuploads)
	if len(bst.upload) > 0 {
		e.rec.Named["upload_p50_ms"] = quantile(bst.upload, 0.5)
		uq := tailQuantile(len(bst.upload))
		e.rec.Named["upload_"+pctName(uq)+"_ms"] = quantile(bst.upload, uq)
		e.rec.Named["uploads"] = float64(len(bst.upload))
	}
	if w.rate == 0 {
		e.rec.Named["spmv_p50_ms"] = quantile(bst.lat, 0.5)
		lq := tailQuantile(len(bst.lat))
		e.rec.Named["spmv_"+pctName(lq)+"_ms"] = quantile(bst.lat, lq)
		e.rec.Config["op"] = "one read of a batch chunk, start to verified final answer (a miss re-uploads first)"
		p50, tail, q := partStats(chunks)
		e.rec.Named["op_p50_ms"], e.rec.Named["op_tail_ms"] = p50, tail
		e.rec.Config["op_statistic"] = fmt.Sprintf("op_p50_ms and op_tail_ms: median over the %d batch chunks of each chunk's p50 and %s", w.batchChunks, pctName(q))
	}
	qw, _ := phaseMean(before, after, "spmv", "queue_wait")
	e.rec.Named["server_queue_wait_ms"] = qw * 1e3
	if e.trace {
		e.layers["wall.op_p50_ms"] = e.rec.Named["op_p50_ms"]
		e.layers["wall.op_tail_ms"] = e.rec.Named["op_tail_ms"]
		e.layers["wall.batch_s"] = batchWall
		if err := serveTraced(e, w, s, c, cpus, batch, window, before, after); err != nil {
			return err
		}
	}
	c.close()
	rss, err := s.d.stop()
	stopped = true
	if err != nil {
		return fmt.Errorf("daemon exit: %w", err)
	}
	e.rec.Named["daemon_lifetime_peak_rss_mb"] = rss
	return nil
}

// openLoopWindow sends the run's --seconds of open-loop zipf reads at the
// workload's reference rate. It gives the wall-clock latency figures
// (spmv_p50_ms, spmv_p99_ms, op_p50_ms, op_tail_ms), and fails the run if
// the generator ran late past maxLateMs.
func openLoopWindow(e *env, w serveWorkload, s *serveSetup, c *client) (readStats, error) {
	e.rec.Config["reference_rate_rps"] = w.rate
	e.rec.Config["zipf_s"] = w.zipfS
	e.rec.Config["max_late_ms"] = maxLateMs
	e.rec.Config["op"] = "one /spmv read, due time to verified final answer"
	reqs := schedule(e.seed, int(w.rate*e.seconds), w.rate, w.zipfS, len(s.corpus))
	outs := c.openLoop(e.ctx, reqs)
	if err := e.ctx.Err(); err != nil {
		return readStats{}, err
	}
	tally(e, outs)
	st := summarize(outs)
	if st.lateP99 > maxLateMs {
		return st, fmt.Errorf("invalid run: the generator ran %.1f ms late at p99 (limit %d ms), so the client, not the daemon, set the latencies",
			st.lateP99, maxLateMs)
	}
	// Whole-window figures under their conventional names; the gated
	// metrics are the sub-window medians.
	e.rec.Named["spmv_p50_ms"] = quantile(st.lat, 0.5)
	wq := tailQuantile(len(st.lat))
	e.rec.Named["spmv_"+pctName(wq)+"_ms"] = quantile(st.lat, wq)
	e.rec.Named["client_late_p99_ms"] = st.lateP99
	e.rec.Named["client_queued_p99_ms"] = st.queuedP99
	p50, tail, q := partStats(splitParts(st.lat, w.subWindows))
	e.rec.Named["op_p50_ms"], e.rec.Named["op_tail_ms"] = p50, tail
	e.rec.Config["op_statistic"] = fmt.Sprintf("op_p50_ms and op_tail_ms: median over the open-loop window split in %d sub-windows of each part's p50 and %s",
		w.subWindows, pctName(q))
	return st, nil
}

// splitParts cuts latencies (in schedule order) into n consecutive equal
// sub-windows.
func splitParts(lat []float64, n int) [][]float64 {
	size := len(lat) / n
	parts := make([][]float64, n)
	for i := range parts {
		parts[i] = lat[i*size : (i+1)*size]
	}
	return parts
}

// partStats returns the median over parts of each part's median and of
// each part's tail: the highest percentile with at least ten samples
// beyond it at the smallest part's size, q. One part disturbed by host
// noise moves neither.
func partStats(parts [][]float64) (p50, tail, q float64) {
	size := len(parts[0])
	for _, p := range parts {
		size = min(size, len(p))
	}
	q = tailQuantile(size)
	var meds, tails []float64
	for _, p := range parts {
		meds = append(meds, quantile(p, 0.5))
		tails = append(tails, quantile(p, q))
	}
	return median(meds), median(tails), q
}

// readStats summarizes a window of reads.
type readStats struct {
	lateP99, queuedP99 float64
	hitRatio           float64
	reuploads          int
	upload             []float64 // upload→ready latencies, ms
	lat                []float64 // read latencies in schedule order, ms
}

// tally counts reads into the run: each is attempted, each error failed,
// and an answer that failed the oracle makes the run incorrect.
func tally(e *env, outs []outcome) {
	for _, o := range outs {
		e.attempted++
		if o.err == nil {
			continue
		}
		e.failed++
		switch {
		case o.wrong:
			e.fail("%v", o.err)
		case len(e.rec.Notes) < 20:
			e.rec.Notes = append(e.rec.Notes, "failed: "+o.err.Error())
		}
	}
}

func summarize(outs []outcome) readStats {
	var st readStats
	var late, queued []float64
	hits := 0
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		st.lat = append(st.lat, float64(o.latency)/1e6)
		late = append(late, float64(o.lag)/1e6)
		queued = append(queued, float64(o.queued)/1e6)
		if o.firstHit {
			hits++
		}
		st.reuploads += o.reuploads
		for _, ex := range o.exchanges {
			if ex.route == "upload" {
				st.upload = append(st.upload, float64(ex.dur)/1e6)
			}
		}
	}
	if len(outs) > 0 {
		st.hitRatio = float64(hits) / float64(len(outs))
	}
	st.lateP99 = quantile(late, 0.99)
	st.queuedP99 = quantile(queued, 0.99)
	return st
}
