// Package experiments orchestrates the full reproduction of the study:
// it applies every reordering to every collection matrix, evaluates both
// SpMV kernels on all eight machine models, computes the order-sensitive
// features and Cholesky fill-in, and renders each of the paper's tables
// and figures (Figures 1-6, Tables 3-5) as ASCII tables in the layout of
// the paper's artifact.
package experiments

import (
	"context"
	"runtime"
	"time"

	"sparseorder/internal/gen"
	"sparseorder/internal/machine"
	"sparseorder/internal/metrics"
	"sparseorder/internal/obs"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

// Config controls a study run. Zero values take the documented defaults.
type Config struct {
	Scale    gen.Scale
	Seed     int64
	Machines []machine.Machine // default: machine.Table2
	// Orderings evaluated in addition to Original. Default: the paper's six.
	Orderings []reorder.Algorithm
	// HostThreads is the goroutine count for wall-clock measurements
	// (Table 5); default runtime.GOMAXPROCS(0).
	HostThreads int
	// Repeats is the number of timed host SpMV iterations; like the paper,
	// the best run is reported. Default 10.
	Repeats int
	// Workers is the number of matrices RunStudy evaluates concurrently.
	// Default runtime.GOMAXPROCS(0). Results are deterministic and land
	// in collection order regardless of the worker count.
	Workers int
	// ReorderWorkers is the worker count handed to the parallel reordering
	// paths (reorder.Options.Workers) and the parallel feature computation
	// for each matrix. The default 0 means 1 (inline on the matrix's own
	// goroutine): matrices already run concurrently under Workers, so
	// per-matrix parallelism is opt-in to avoid oversubscription. Any
	// value produces byte-identical permutations, matrices and features.
	ReorderWorkers int
	// IngestWorkers is the worker count for parallel Matrix Market
	// ingestion (sparse.ReadMatrixMarketWorkers) when the study runs on a
	// file corpus (LoadMatrixFiles). Unlike ReorderWorkers, the default 0
	// means GOMAXPROCS: ingestion happens before the matrix worker pool
	// spins up, so it may use the whole host without oversubscription.
	// Any value produces byte-identical matrices.
	IngestWorkers int
	// Timeout bounds each matrix's evaluation; 0 means no limit. The
	// deadline is threaded into the ordering algorithms themselves (BFS,
	// elimination, coarsening and refinement loops all poll it), so even a
	// single wedged ordering stops within a bounded amount of work of the
	// deadline. A timed-out matrix is recorded in StudyResult.Failures;
	// the study continues.
	Timeout time.Duration
	// Retries is the number of additional evaluation attempts for matrices
	// failing with a retryable class (timeout, panic). 0 disables retry;
	// deterministic errors and run cancellation are never retried.
	Retries int
	// RetryBackoff is the pause before the first retry, doubling on each
	// subsequent attempt. Default 100ms. The actual pause is capped at
	// RetryBackoffMax and scattered by deterministic seeded jitter (see
	// retryDelay) so batches of same-class failures retry decorrelated.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the doubling backoff. Default 10s.
	RetryBackoffMax time.Duration
	// MemBudget is the byte budget the resource governor admits matrices
	// against (see DESIGN.md, "Resource governance & degradation
	// contract"): per-matrix working sets are estimated up front and a
	// byte-weighted semaphore narrows effective concurrency so the sum of
	// admitted estimates stays within the budget; oversized matrices run
	// alone with the pool drained, and matrices beyond twice the budget
	// are skipped with failure class "resource". 0 auto-detects from the
	// runtime's soft memory limit (GOMEMLIMIT), taking 90% of it, and
	// leaves the governor off when no limit is set; negative disables the
	// governor unconditionally.
	MemBudget int64
	// Journal, when set, receives every completed matrix (result or
	// terminal failure) as a durable record, and matrices it already holds
	// are skipped and their recorded outcomes reused — the checkpoint /
	// resume mechanism. The journal must have been created or loaded with
	// this same Config (LoadJournal enforces the binding).
	Journal *Journal
	// Logf receives per-matrix progress if set. RunStudy serialises calls
	// to it, so it need not be safe for concurrent use itself.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives the run's telemetry: per-matrix and
	// per-phase spans, latency histograms, failure-class counters, the
	// live progress view and the structured event log. The runner threads
	// it into the evaluation context (obs.NewContext), so every layer down
	// to the partitioners reports through the same sinks. Nil keeps the
	// entire instrumented path on its zero-allocation fast path.
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.Machines == nil {
		c.Machines = machine.Table2
	}
	if c.Orderings == nil {
		c.Orderings = reorder.Algorithms
	}
	if c.HostThreads == 0 {
		c.HostThreads = runtime.GOMAXPROCS(0)
	}
	if c.Repeats == 0 {
		c.Repeats = 10
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ReorderWorkers == 0 {
		c.ReorderWorkers = 1
	}
	if c.IngestWorkers == 0 {
		c.IngestWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.RetryBackoffMax == 0 {
		c.RetryBackoffMax = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Measurement is the per-(matrix, ordering, machine, kernel) record,
// mirroring the seven per-ordering columns of the paper's artifact files.
type Measurement struct {
	MinNNZ    int
	MaxNNZ    int
	MeanNNZ   float64
	Imbalance float64
	Seconds   float64
	Gflops    float64
}

// MatrixResult holds everything the study records about one matrix.
type MatrixResult struct {
	Name  string
	Group string
	Kind  string
	Rows  int
	NNZ   int
	SPD   bool

	// Perf[machine][kernel][ordering] for every evaluated ordering
	// (including Original). GP uses the partition count matching each
	// machine's cores, as in the paper.
	Perf map[string]map[machine.Kernel]map[reorder.Algorithm]Measurement

	// Features[ordering] with blocks = 128 (the HP partition count).
	Features map[reorder.Algorithm]metrics.Features

	// ReorderSeconds[ordering] is the wall-clock cost of computing the
	// ordering on the host.
	ReorderSeconds map[reorder.Algorithm]float64

	// ReorderPhases[ordering] splits ReorderSeconds into graph
	// construction, ordering and permutation application — the Table 5
	// reordering-time breakdown. For GP the graph/order phases accumulate
	// over the distinct per-machine part counts.
	ReorderPhases map[reorder.Algorithm]reorder.PhaseTimings

	// FillRatio[ordering] is nnz(L)/nnz(A); only set for SPD matrices and
	// symmetric orderings.
	FillRatio map[reorder.Algorithm]float64
}

// Speedup returns Gflops(alg)/Gflops(Original) for the given machine and
// kernel, the quantity plotted throughout the paper.
func (r *MatrixResult) Speedup(mach string, k machine.Kernel, alg reorder.Algorithm) float64 {
	perf := r.Perf[mach][k]
	base := perf[reorder.Original].Gflops
	if base == 0 {
		return 0
	}
	return perf[alg].Gflops / base
}

// StudyResult is the output of RunStudy. Matrices holds the successful
// evaluations in collection order; Failures the matrices that could not
// be evaluated, also in collection order.
type StudyResult struct {
	Config   Config
	Matrices []*MatrixResult
	Failures []MatrixError
}

// featureBlocks is the block count for the off-diagonal nonzero feature;
// the paper uses the HP partition count (128).
const featureBlocks = 128

// EvaluateMatrix runs the full per-matrix pipeline: all orderings, all
// machine models, both kernels, features and (for SPD inputs) fill-in.
func EvaluateMatrix(m gen.Matrix, cfg Config) (*MatrixResult, error) {
	return EvaluateMatrixContext(context.Background(), m, cfg)
}

// EvaluateMatrixContext is EvaluateMatrix with cooperative cancellation:
// the context is checked between orderings and machine models and is
// threaded into each ordering algorithm's inner loops, so a cancelled or
// timed-out evaluation returns promptly even when a single ordering is
// wedged. Failures are reported as *MatrixError.
func EvaluateMatrixContext(ctx context.Context, m gen.Matrix, cfg Config) (*MatrixResult, error) {
	cfg = cfg.withDefaults()
	res := &MatrixResult{
		Name:           m.Name,
		Group:          m.Group,
		Kind:           m.Kind,
		Rows:           m.A.Rows,
		NNZ:            m.A.NNZ(),
		SPD:            m.SPD,
		Perf:           map[string]map[machine.Kernel]map[reorder.Algorithm]Measurement{},
		Features:       map[reorder.Algorithm]metrics.Features{},
		ReorderSeconds: map[reorder.Algorithm]float64{},
		ReorderPhases:  map[reorder.Algorithm]reorder.PhaseTimings{},
		FillRatio:      map[reorder.Algorithm]float64{},
	}
	for _, mc := range cfg.Machines {
		res.Perf[mc.Name] = map[machine.Kernel]map[reorder.Algorithm]Measurement{
			machine.Kernel1D: {},
			machine.Kernel2D: {},
		}
	}

	// Distinct GP part counts (one ordering per machine core count).
	gpParts := map[int]sparse.Perm{}

	o := obs.FromContext(ctx)
	estimatePh := o.Phase("study/estimate")
	featuresPh := o.Phase("study/features")
	fillPh := o.Phase("study/fill")

	evalOrdering := func(alg reorder.Algorithm, b *sparse.CSR, machines []machine.Machine) {
		tm := estimatePh.Start()
		defer tm.Stop()
		for _, mc := range machines {
			for _, k := range []machine.Kernel{machine.Kernel1D, machine.Kernel2D} {
				e := machine.EstimateSpMV(b, mc, k)
				minN, maxN := e.ThreadNNZ[0], e.ThreadNNZ[0]
				for _, n := range e.ThreadNNZ {
					if n < minN {
						minN = n
					}
					if n > maxN {
						maxN = n
					}
				}
				res.Perf[mc.Name][k][alg] = Measurement{
					MinNNZ:    minN,
					MaxNNZ:    maxN,
					MeanNNZ:   float64(b.NNZ()) / float64(mc.Cores),
					Imbalance: e.Imbalance,
					Seconds:   e.Seconds,
					Gflops:    e.Gflops,
				}
			}
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, &MatrixError{Name: m.Name, Err: err}
	}

	// Original ordering first.
	evalOrdering(reorder.Original, m.A, cfg.Machines)
	tm := featuresPh.Start()
	res.Features[reorder.Original] = metrics.ComputeWorkers(m.A, featureBlocks, featureBlocks, cfg.ReorderWorkers)
	tm.Stop()
	if m.SPD {
		tm = fillPh.Start()
		fr, err := fillOf(m.A)
		tm.Stop()
		if err == nil {
			res.FillRatio[reorder.Original] = fr
		}
	}

	for _, alg := range cfg.Orderings {
		if err := ctx.Err(); err != nil {
			return nil, &MatrixError{Name: m.Name, Err: err}
		}
		// One span per (matrix, ordering); the reorder-phase spans started
		// inside ApplyTimedCtx/ComputeTimedCtx nest under it via octx.
		octx, sp := obs.Start(ctx, "study/ordering")
		sp.SetAttr("alg", string(alg))
		sp.SetAttr("matrix", m.Name)
		res2, err := evalOneOrdering(octx, alg, m, cfg, res, gpParts, evalOrdering, featuresPh, fillPh)
		sp.End()
		if err != nil {
			return nil, err
		}
		res = res2
	}
	return res, nil
}

// evalOneOrdering evaluates one ordering of one matrix into res; split out
// of EvaluateMatrixContext so each ordering runs under its own span.
func evalOneOrdering(ctx context.Context, alg reorder.Algorithm, m gen.Matrix, cfg Config,
	res *MatrixResult, gpParts map[int]sparse.Perm,
	evalOrdering func(reorder.Algorithm, *sparse.CSR, []machine.Machine),
	featuresPh, fillPh obs.Phase) (*MatrixResult, error) {
	switch alg {
	case reorder.GP:
		// One GP ordering per distinct machine core count.
		var phases reorder.PhaseTimings
		for _, mc := range cfg.Machines {
			if err := ctx.Err(); err != nil {
				return nil, &MatrixError{Name: m.Name, Ordering: alg, Err: err}
			}
			p, ok := gpParts[mc.Cores]
			if !ok {
				var ph reorder.PhaseTimings
				var err error
				p, ph, err = reorder.ComputeTimedCtx(ctx, reorder.GP, m.A,
					reorder.Options{Seed: cfg.Seed, Parts: mc.Cores, Workers: cfg.ReorderWorkers})
				if err != nil {
					return nil, &MatrixError{Name: m.Name, Ordering: alg, Err: err}
				}
				phases.GraphSeconds += ph.GraphSeconds
				phases.OrderSeconds += ph.OrderSeconds
				gpParts[mc.Cores] = p
			}
			b, err := sparse.PermuteSymmetricWorkers(m.A, p, cfg.ReorderWorkers)
			if err != nil {
				return nil, &MatrixError{Name: m.Name, Ordering: alg, Err: err}
			}
			evalOrdering(alg, b, []machine.Machine{mc})
		}
		// ReorderSeconds keeps its historical meaning for GP: the cost
		// of computing the orderings, excluding the per-machine
		// permutation applications.
		res.ReorderSeconds[alg] = phases.GraphSeconds + phases.OrderSeconds
		// Features and fill use the 128-part GP ordering (or the largest
		// evaluated) to match the HP feature blocks.
		p := gpParts[largestCores(cfg.Machines)]
		start := time.Now()
		b, err := sparse.PermuteSymmetricWorkers(m.A, p, cfg.ReorderWorkers)
		if err != nil {
			return nil, &MatrixError{Name: m.Name, Ordering: alg, Err: err}
		}
		phases.PermuteSeconds = time.Since(start).Seconds()
		res.ReorderPhases[alg] = phases
		tm := featuresPh.Start()
		res.Features[alg] = metrics.ComputeWorkers(b, featureBlocks, featureBlocks, cfg.ReorderWorkers)
		tm.Stop()
		if m.SPD {
			tm = fillPh.Start()
			fr, err := fillOf(b)
			tm.Stop()
			if err == nil {
				res.FillRatio[alg] = fr
			}
		}
	default:
		b, _, ph, err := reorder.ApplyTimedCtx(ctx, alg, m.A,
			reorder.Options{Seed: cfg.Seed, Workers: cfg.ReorderWorkers})
		if err != nil {
			return nil, &MatrixError{Name: m.Name, Ordering: alg, Err: err}
		}
		res.ReorderSeconds[alg] = ph.Total()
		res.ReorderPhases[alg] = ph
		evalOrdering(alg, b, cfg.Machines)
		tm := featuresPh.Start()
		res.Features[alg] = metrics.ComputeWorkers(b, featureBlocks, featureBlocks, cfg.ReorderWorkers)
		tm.Stop()
		if m.SPD && alg.Symmetric() {
			tm = fillPh.Start()
			fr, err := fillOf(b)
			tm.Stop()
			if err == nil {
				res.FillRatio[alg] = fr
			}
		}
	}
	return res, nil
}

func largestCores(ms []machine.Machine) int {
	best := 0
	for _, m := range ms {
		if m.Cores > best {
			best = m.Cores
		}
	}
	return best
}

// Speedups collects the speedup of alg over Original across all matrices
// for one machine and kernel.
func (s *StudyResult) Speedups(mach string, k machine.Kernel, alg reorder.Algorithm) []float64 {
	var xs []float64
	for _, r := range s.Matrices {
		if v := r.Speedup(mach, k, alg); v > 0 {
			xs = append(xs, v)
		}
	}
	return xs
}
