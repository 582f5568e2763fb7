package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"sparseorder/internal/reorder"
	"sparseorder/internal/server"
	"sparseorder/internal/sparse"
	"sparseorder/internal/spmv"
)

// replayReps is how many times each in-process call is repeated; the
// median CPU time is kept.
const replayReps = 5

// keyCost is what serving one matrix costs inside the daemon, measured by
// replaying the daemon's calls in-process, one at a time, on the process
// CPU clock: the handler as a whole (server.(*Server).Handler().ServeHTTP)
// and the layers it calls. All are CPU seconds.
type keyCost struct {
	alg                          reorder.Algorithm
	handler, decode, mul, encode float64 // per /spmv request
	plan                         float64 // spmv.NewPlan2D
	ingest, predict              float64 // per upload
	// graph, order and permute split the ordering's CPU time by the
	// phases' wall-time shares, the split ApplyTimedCtx reports.
	graph, order, permute float64
}

// replayServer measures keyCost for each corpus entry in used against an
// in-process server configured like the daemon. Every in-process answer
// must also pass the (key, x) oracle, so it equals the daemon's bytes.
func replayServer(e *env, corpus []*corpusEntry, used []int, tr *tracer) (map[int]*keyCost, error) {
	threads := runtime.NumCPU()
	srv, err := server.New(server.Config{Threads: threads, CacheEntries: len(corpus) + 1, MemBudget: -1})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	costs := map[int]*keyCost{}
	for _, k := range used {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		ce := corpus[k]
		kc := &keyCost{}
		if rec := serve("/matrices", ce.mm); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process upload %s: %d %s", ce.name, rec.Code, rec.Body.String())
		}
		// Upload layers: ingest, Predict, and the ordering pipeline.
		var mat *sparse.CSR
		kc.ingest = medianOf(tr, "sparse.ingest", func() {
			mat, err = sparse.ReadMatrixMarketCtx(e.ctx, bytes.NewReader(ce.mm), runtime.GOMAXPROCS(0))
		})
		if err != nil {
			return nil, err
		}
		kc.predict = medianOf(tr, "metrics.predict", func() { kc.alg = server.Predict(mat, threads) })
		b, perm := mat, sparse.Identity(mat.Rows)
		if kc.alg != reorder.Original {
			var ph reorder.PhaseTimings
			wall, cpu := tr.do("reorder.call", -1, 0, func(int) {
				b, perm, ph, err = reorder.ApplyTimedCtx(e.ctx, kc.alg, mat,
					reorder.Options{Parts: threads, Seed: 42, Workers: 1})
			})
			if err != nil {
				return nil, err
			}
			if wall > 0 {
				kc.graph, kc.order, kc.permute = ph.GraphSeconds*cpu/wall, ph.OrderSeconds*cpu/wall, ph.PermuteSeconds*cpu/wall
			}
		}
		var plan *spmv.Plan2D
		kc.plan = medianOf(tr, "spmv.plan_build", func() { plan, err = spmv.NewPlan2D(b, threads) })
		if err != nil {
			return nil, err
		}
		var handler, decode, mul, encode []float64
		for _, xv := range ce.xs {
			path := "/spmv/" + ce.key
			rec := serve(path, xv.body) // first call builds the pooled plan
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("in-process spmv %s: %d %s", ce.name, rec.Code, rec.Body.String())
			}
			e.attempted++
			if err := xv.verify(rec.Body.Bytes()); err != nil {
				e.failed++
				e.fail("in-process spmv %s: %v", ce.name, err)
			}
			handler = append(handler, medianOf(tr, "server.handler", func() { serve(path, xv.body) }))
			var req struct {
				X []float64 `json:"x"`
			}
			decode = append(decode, medianOf(tr, "server.json_decode", func() {
				req.X = nil
				err = json.NewDecoder(bytes.NewReader(xv.body)).Decode(&req)
			}))
			if err != nil {
				return nil, err
			}
			xb := req.X
			if kc.alg.Symmetric() && kc.alg != reorder.Original {
				xb = make([]float64, len(req.X))
				for i, p := range perm {
					xb[i] = req.X[p]
				}
			}
			yb := make([]float64, b.Rows)
			mul = append(mul, medianOf(tr, "spmv.mul2d", func() { err = spmv.Mul2D(b, xb, yb, plan) }))
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			encode = append(encode, medianOf(tr, "server.json_encode", func() {
				buf.Reset()
				err = json.NewEncoder(&buf).Encode(struct {
					Y []float64 `json:"y"`
				}{yb})
			}))
			if err != nil {
				return nil, err
			}
		}
		kc.handler, kc.decode, kc.mul, kc.encode = mean(handler), mean(decode), mean(mul), mean(encode)
		costs[k] = kc
	}
	return costs, nil
}

// medianOf runs f replayReps times, each under a span, and returns the
// median CPU time in seconds.
func medianOf(tr *tracer, name string, f func()) float64 {
	ds := make([]float64, replayReps)
	for i := range ds {
		_, ds[i] = tr.do(name, -1, 0, func(int) { f() })
	}
	return median(ds)
}

// serveTraced attributes the daemon CPU time of the untraced batch, the
// work behind batch_cpu_s, to the layers. Each matrix the batch touched is
// replayed against an in-process server, and each exchange of the batch
// is charged its matrix's replayed layer CPU costs. The batch is then
// rerun with client spans, which gives the tracing overhead. cpus holds
// the untraced chunks' daemon CPU times.
func serveTraced(e *env, w serveWorkload, s *serveSetup, c *client, cpus []float64, batch []outcome,
	window readStats, before, after promSnapshot) error {
	seen := map[int]bool{}
	for _, o := range batch {
		for _, ex := range o.exchanges {
			seen[ex.entry] = true
		}
	}
	rtr := newTracer(processCPU)
	costs, err := replayServer(e, s.corpus, sortedInts(seen), rtr)
	if err != nil {
		return fmt.Errorf("in-process replay: %w", err)
	}
	for k, kc := range costs {
		e.rec.Matrices[k].Ordering = string(kc.alg)
	}

	tr := newTracer(processCPU)
	c.tr = tr
	c0, err := pidCPU(c.pid)
	if err != nil {
		return fmt.Errorf("daemon CPU clock: %w", err)
	}
	for i := 0; i < w.batchChunks; i++ {
		outs, _ := c.closedLoop(e.ctx, w.batchChunk(e.seed, i, len(s.corpus)), w.batchClients)
		if err := e.ctx.Err(); err != nil {
			return err
		}
		tally(e, outs)
	}
	c1, err := pidCPU(c.pid)
	if err != nil {
		return fmt.Errorf("daemon CPU clock: %w", err)
	}
	c.tr = nil

	storeWrite, _ := phaseMean(before, after, "upload", "store_write")
	at := map[string]float64{}
	var spmvN, uploadN, failed float64
	var planSum, handlerSum, decodeSum, mulSum, encodeSum, ingestSum, predictSum float64
	verify := 0.0
	for _, o := range batch {
		if o.err != nil {
			failed++
		}
		verify += o.verify.Seconds()
		uploaded := false
		for _, ex := range o.exchanges {
			kc := costs[ex.entry]
			if kc == nil || ex.status != http.StatusOK {
				continue
			}
			switch ex.route {
			case "spmv":
				spmvN++
				handlerSum += kc.handler
				decodeSum += kc.decode
				mulSum += kc.mul
				encodeSum += kc.encode
				planSum += kc.plan
				// The replayed handler reuses a pooled plan; the first read
				// after an upload builds one.
				if uploaded {
					at["spmv.plan_build"] += kc.plan
				}
			case "upload":
				uploaded = true
				uploadN++
				ingestSum += kc.ingest
				predictSum += kc.predict
				at["graph.build"] += kc.graph
				at["reorder."+strings.ToLower(string(kc.alg))] += kc.order
				at["sparse.permute"] += kc.permute
			}
		}
	}
	at["server.json_decode"] = decodeSum
	at["spmv.mul2d"] = mulSum
	at["server.json_encode"] = encodeSum
	at["server.handler_residual"] = handlerSum - decodeSum - mulSum - encodeSum
	at["sparse.ingest"] = ingestSum
	at["metrics.predict"] = predictSum
	delete(at, "reorder.original")
	e.addAttribution(newAttribution("batch_cpu_s", e.e2e["batch_cpu_s"], "cpu s",
		fmt.Sprintf("batch_cpu_s is %d x the median chunk's daemon CPU time (gated_value); the total is the untraced chunks' summed daemon CPU time, the traced total that of a rerun of the same chunks with client spans; each exchange of the untraced chunks is charged its matrix's layer CPU costs from an in-process replay (median of %d calls); the residual is daemon CPU outside the replayed calls: HTTP and loopback I/O, the store write, the runtime and the garbage collector",
			w.batchChunks, replayReps),
		sum(cpus), c1-c0, at))

	l := e.layers
	per := func(sum, n, scale float64) float64 {
		if n == 0 {
			return 0
		}
		return sum / n * scale
	}
	bst := summarize(batch)
	l["server.handler_us"] = per(handlerSum, spmvN, 1e6)
	l["server.json_decode_us"] = per(decodeSum, spmvN, 1e6)
	l["server.json_encode_us"] = per(encodeSum, spmvN, 1e6)
	l["server.residual_us"] = per(handlerSum-decodeSum-mulSum-encodeSum, spmvN, 1e6)
	l["spmv.mul2d_us"] = per(mulSum, spmvN, 1e6)
	l["spmv.plan_build_us"] = per(planSum, spmvN, 1e6)
	qw, _ := phaseMean(before, after, "spmv", "queue_wait")
	l["server.queue_wait_ms"] = qw * 1e3
	l["server.shed"] = after["sparseorder_server_shed_total"] - before["sparseorder_server_shed_total"]
	l["server.cache_hit_ratio"] = bst.hitRatio
	l["server.reuploads"] = float64(bst.reuploads)
	l["server.store_write_ms"] = storeWrite * 1e3
	l["sparse.ingest_ms"] = per(ingestSum, uploadN, 1e3)
	l["metrics.predict_ms"] = per(predictSum, uploadN, 1e3)
	l["graph.build_s"] = at["graph.build"]
	l["sparse.permute_s"] = at["sparse.permute"]
	for _, alg := range reorder.Algorithms {
		n := "reorder." + strings.ToLower(string(alg))
		l[n+"_s"] = at[n]
	}
	// Closed-loop reads are sent on completion, so only an open-loop
	// window can run late.
	l["client.late_ms"] = bst.lateP99
	if w.rate > 0 {
		l["client.late_ms"] = window.lateP99
	}
	l["client.attempted"] = float64(len(batch))
	l["client.failed"] = failed
	l["bench.verify_s"] = verify

	// Cross-check: the daemon's own phase histograms over the window and
	// the untraced batch.
	for _, route := range []string{"spmv", "upload"} {
		for _, ph := range []string{"queue_wait", "decode", "reorder", "plan_build", "spmv", "store_write"} {
			if m, n := phaseMean(before, after, route, ph); n > 0 {
				e.rec.Named["scraped_"+route+"_"+ph+"_ms"] = m * 1e3
			}
		}
	}
	if err := tr.write(e.traceDir, w.name+".client.spans.jsonl"); err != nil {
		return err
	}
	return rtr.write(e.traceDir, w.name+".replay.spans.jsonl")
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// traceRead records one read's client-side spans: the read from due to
// answer, with its wait for a connection and the generator, HTTP exchanges and verification as children.
func traceRead(tr *tracer, due time.Time, o *outcome) {
	root := tr.add("client.read", -1, 0, due, o.latency, false)
	tr.add("client.queue", root, 0, due, o.queued, false)
	t := due.Add(o.queued)
	for _, ex := range o.exchanges {
		tr.add("client.exchange."+ex.route, root, 0, t, ex.dur, false)
		t = t.Add(ex.dur)
	}
	tr.add("bench.verify", root, 0, t, o.verify, false)
}
