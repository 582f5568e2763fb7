package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sparseorder/internal/admit"
	"sparseorder/internal/gen"
	"sparseorder/internal/obs"
)

// smallSet is a tiny matrix list for runner tests: full EvaluateMatrix on
// each member is cheap enough to run repeatedly.
func smallSet() []gen.Matrix {
	return []gen.Matrix{
		{Name: "g0", Group: "mesh", Kind: "fem-2d", SPD: true, A: gen.Grid2D(10, 10)},
		{Name: "g1", Group: "mesh", Kind: "fem-2d", SPD: true, A: gen.Scramble(gen.Grid2D(11, 11), 1)},
		{Name: "g2", Group: "banded", Kind: "banded", SPD: true, A: gen.Banded(120, 6, 0.5, 2)},
		{Name: "g3", Group: "random", Kind: "random-sparse", SPD: true, A: gen.ErdosRenyi(150, 4, 3)},
	}
}

// TestRunStudyMatricesDeterministicAcrossWorkers checks the runner's core
// guarantee: the result is identical for any worker count, with results at
// their collection index regardless of completion order.
func TestRunStudyMatricesDeterministicAcrossWorkers(t *testing.T) {
	ms := smallSet()
	run := func(workers int) *StudyResult {
		s, err := RunStudyMatrices(context.Background(), Config{Scale: gen.ScaleTest, Seed: 7, Workers: workers}, ms)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return s
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 9} {
		par := run(workers)
		if len(par.Matrices) != len(ms) || len(par.Failures) != 0 {
			t.Fatalf("workers=%d: %d results, %d failures", workers, len(par.Matrices), len(par.Failures))
		}
		for i := range ms {
			a, b := serial.Matrices[i], par.Matrices[i]
			if a.Name != b.Name {
				t.Fatalf("workers=%d: result %d is %s, want %s (order not deterministic)", workers, i, b.Name, a.Name)
			}
			// Everything except wall-clock reorder timings must be
			// bit-identical.
			if !reflect.DeepEqual(a.Perf, b.Perf) {
				t.Errorf("workers=%d: %s Perf differs from serial run", workers, a.Name)
			}
			if !reflect.DeepEqual(a.Features, b.Features) {
				t.Errorf("workers=%d: %s Features differ from serial run", workers, a.Name)
			}
			if !reflect.DeepEqual(a.FillRatio, b.FillRatio) {
				t.Errorf("workers=%d: %s FillRatio differs from serial run", workers, a.Name)
			}
		}
	}
}

// TestRunStudyIsolatesInjectedError checks that a failing matrix is
// recorded in Failures while every other matrix still completes.
func TestRunStudyIsolatesInjectedError(t *testing.T) {
	ms := smallSet()
	boom := errors.New("ordering exploded")
	eval := func(ctx context.Context, m gen.Matrix, cfg Config) (*MatrixResult, error) {
		if m.Name == "g1" {
			return nil, &MatrixError{Name: m.Name, Ordering: "RCM", Err: boom}
		}
		return &MatrixResult{Name: m.Name}, nil
	}
	s, err := runStudy(context.Background(), Config{Workers: 4}, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(s); !reflect.DeepEqual(got, []string{"g0", "g2", "g3"}) {
		t.Fatalf("successful matrices = %v", got)
	}
	if len(s.Failures) != 1 {
		t.Fatalf("%d failures, want 1", len(s.Failures))
	}
	f := s.Failures[0]
	if f.Name != "g1" || f.Ordering != "RCM" || !errors.Is(&f, boom) {
		t.Errorf("failure = %+v", f)
	}
	if !strings.Contains(f.Error(), "g1") || !strings.Contains(f.Error(), "RCM") {
		t.Errorf("failure message %q missing matrix or ordering", f.Error())
	}
}

// TestRunStudyRecoversPanic checks the bugfix headline: a panic inside a
// worker is converted to a recorded failure instead of killing the run.
func TestRunStudyRecoversPanic(t *testing.T) {
	ms := smallSet()
	eval := func(ctx context.Context, m gen.Matrix, cfg Config) (*MatrixResult, error) {
		if m.Name == "g2" {
			panic("pathological matrix")
		}
		return &MatrixResult{Name: m.Name}, nil
	}
	s, err := runStudy(context.Background(), Config{Workers: 4}, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Matrices) != 3 || len(s.Failures) != 1 {
		t.Fatalf("%d results, %d failures", len(s.Matrices), len(s.Failures))
	}
	f := s.Failures[0]
	if f.Name != "g2" || !strings.Contains(f.Err.Error(), "panic: pathological matrix") {
		t.Errorf("failure = %v", &f)
	}
}

// TestRunStudyMatricesRecoversRealPanic drives the public entry point with
// a matrix that makes the real EvaluateMatrix panic (nil CSR).
func TestRunStudyMatricesRecoversRealPanic(t *testing.T) {
	ms := smallSet()
	ms[2].A = nil // nil deref inside EvaluateMatrix
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped RunStudyMatrices: %v", r)
		}
	}()
	// The nil matrix panics as early as the runner's own progress-log
	// arguments (m.A.Rows); that panic must not escape either.
	cfg := Config{Scale: gen.ScaleTest, Seed: 7, Workers: 3}
	s, err := RunStudyMatrices(context.Background(), cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Matrices) != 3 || len(s.Failures) != 1 {
		t.Fatalf("%d results, %d failures", len(s.Matrices), len(s.Failures))
	}
	if s.Failures[0].Name != "g2" || !strings.Contains(s.Failures[0].Err.Error(), "panic") {
		t.Errorf("failure = %v", &s.Failures[0])
	}
}

// TestRunStudyDeterministicOrderUnderSkew forces later matrices to finish
// first and checks results still land in collection order.
func TestRunStudyDeterministicOrderUnderSkew(t *testing.T) {
	var ms []gen.Matrix
	for i := 0; i < 8; i++ {
		ms = append(ms, gen.Matrix{Name: fmt.Sprintf("m%d", i), A: gen.Grid2D(4, 4)})
	}
	eval := func(ctx context.Context, m gen.Matrix, cfg Config) (*MatrixResult, error) {
		var i int
		fmt.Sscanf(m.Name, "m%d", &i)
		time.Sleep(time.Duration(len(ms)-i) * 10 * time.Millisecond)
		return &MatrixResult{Name: m.Name}, nil
	}
	s, err := runStudy(context.Background(), Config{Workers: 8}, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	if got := names(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestRunStudyTimeout checks that a matrix exceeding Config.Timeout is
// recorded as a DeadlineExceeded failure while the rest complete.
func TestRunStudyTimeout(t *testing.T) {
	ms := smallSet()
	eval := func(ctx context.Context, m gen.Matrix, cfg Config) (*MatrixResult, error) {
		if m.Name == "g3" {
			<-ctx.Done() // simulate an evaluation that never finishes
			return nil, &MatrixError{Name: m.Name, Err: ctx.Err()}
		}
		return &MatrixResult{Name: m.Name}, nil
	}
	s, err := runStudy(context.Background(), Config{Workers: 2, Timeout: 30 * time.Millisecond}, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Matrices) != 3 || len(s.Failures) != 1 {
		t.Fatalf("%d results, %d failures", len(s.Matrices), len(s.Failures))
	}
	if f := s.Failures[0]; f.Name != "g3" || !errors.Is(&f, context.DeadlineExceeded) {
		t.Errorf("failure = %v", &f)
	}
}

// TestRunStudyCancellation checks that cancelling the study's context
// aborts the whole run with the context's error.
func TestRunStudyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStudyMatrices(ctx, Config{Scale: gen.ScaleTest, Workers: 2}, smallSet()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunStudyLogfSerialised checks progress logging is thread-safe even
// with a Logf that is not: races would be caught by -race, interleaving by
// the per-line counter check.
func TestRunStudyLogfSerialised(t *testing.T) {
	var lines []string // deliberately unguarded; the runner must serialise
	cfg := Config{
		Scale:   gen.ScaleTest,
		Workers: 4,
		Logf:    func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	}
	s, err := RunStudyMatrices(context.Background(), cfg, smallSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Matrices) != 4 {
		t.Fatalf("%d results", len(s.Matrices))
	}
	var done int
	for _, l := range lines {
		if strings.Contains(l, "done") {
			done++
		}
	}
	if done != 4 {
		t.Fatalf("progress lines report %d completions in %d lines", done, len(lines))
	}
	if !strings.Contains(strings.Join(lines, "\n"), "[4/4]") {
		t.Error("missing final [4/4] progress line")
	}
}

func names(s *StudyResult) []string {
	var out []string
	for _, r := range s.Matrices {
		out = append(out, r.Name)
	}
	return out
}

// TestRetryDelay pins the capped-doubling-with-jitter schedule: pure in
// (seed, name, attempt), doubling until the cap, jittered into [d/2, d).
func TestRetryDelay(t *testing.T) {
	if d := retryDelay(0, time.Second, 7, "m", 3); d != 0 {
		t.Errorf("zero base: got %v", d)
	}
	a := retryDelay(100*time.Millisecond, 10*time.Second, 7, "m", 2)
	b := retryDelay(100*time.Millisecond, 10*time.Second, 7, "m", 2)
	if a != b {
		t.Errorf("retryDelay is not deterministic: %v vs %v", a, b)
	}
	// Attempt 2 doubles once: jittered into [100ms, 200ms).
	if a < 100*time.Millisecond || a >= 200*time.Millisecond {
		t.Errorf("attempt 2 delay %v outside [100ms, 200ms)", a)
	}
	// A huge attempt count must saturate at the cap, not overflow.
	c := retryDelay(100*time.Millisecond, time.Second, 7, "m", 500)
	if c < 500*time.Millisecond || c >= time.Second {
		t.Errorf("capped delay %v outside [500ms, 1s)", c)
	}
	// Jitter decorrelates matrices: not every name may land on the same
	// delay.
	names := []string{"m0", "m1", "m2", "m3", "m4"}
	distinct := map[time.Duration]bool{}
	for _, n := range names {
		distinct[retryDelay(100*time.Millisecond, 10*time.Second, 7, n, 2)] = true
	}
	if len(distinct) < 2 {
		t.Errorf("jitter produced identical delays for %v", names)
	}
	// Seed sensitivity.
	if retryDelay(100*time.Millisecond, 10*time.Second, 7, "m", 2) ==
		retryDelay(100*time.Millisecond, 10*time.Second, 8, "m", 2) {
		t.Error("different seeds produced the same delay (suspicious)")
	}
}

// TestRunStudyResourceSkip drives the full runner with a budget no matrix
// can fit: every matrix must fail with class resource after one attempt,
// journal as a terminal failure, and be skipped (not re-evaluated) on
// resume.
func TestRunStudyResourceSkip(t *testing.T) {
	ms := smallSet()
	cfg := journalConfig()
	cfg.MemBudget = 1 // solo ceiling 2 bytes: nothing fits
	var calls atomic.Int32
	eval := func(ctx context.Context, m gen.Matrix, c Config) (*MatrixResult, error) {
		calls.Add(1)
		return &MatrixResult{Name: m.Name}, nil
	}

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run1 := cfg
	run1.Journal = j
	s, err := runStudy(context.Background(), run1, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if calls.Load() != 0 {
		t.Errorf("eval ran %d times under an impossible budget, want 0", calls.Load())
	}
	if len(s.Matrices) != 0 || len(s.Failures) != len(ms) {
		t.Fatalf("%d results, %d failures; want 0 and %d", len(s.Matrices), len(s.Failures), len(ms))
	}
	for i := range s.Failures {
		if f := &s.Failures[i]; f.Class != admit.FailResource || f.Attempts != 1 {
			t.Errorf("%s: class %s attempts %d, want resource/1", f.Name, f.Class, f.Attempts)
		}
	}

	// Resume: the journaled resource skips are terminal, never re-run.
	j2, err := LoadJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != len(ms) {
		t.Fatalf("journal holds %d records, want %d", j2.Len(), len(ms))
	}
	run2 := cfg
	run2.Journal = j2
	run2.MemBudget = -1 // even with the governor off, journaled skips stand
	s2, err := runStudy(context.Background(), run2, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Errorf("resume re-evaluated %d matrices, want 0", calls.Load())
	}
	for i := range s2.Failures {
		if f := &s2.Failures[i]; f.Class != admit.FailResource {
			t.Errorf("resumed %s: class %s, want resource", f.Name, f.Class)
		}
	}
}

// TestRunStudySoloDegrade sizes the budget so the largest matrix in the
// set is over budget but under the solo ceiling: the run must complete
// with no failures and the degradation counter must record the solo
// admission.
func TestRunStudySoloDegrade(t *testing.T) {
	ms := smallSet()
	base := journalConfig()
	wd := base.withDefaults()
	var maxEst int64
	for _, m := range ms {
		if e := admit.EstimateMatrixBytes(m.A.Rows, m.A.NNZ(), wd.Orderings); e > maxEst {
			maxEst = e
		}
	}
	cfg := base
	cfg.MemBudget = maxEst - 1
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Obs{Metrics: reg}
	eval := func(ctx context.Context, m gen.Matrix, c Config) (*MatrixResult, error) {
		return &MatrixResult{Name: m.Name}, nil
	}
	s, err := runStudy(context.Background(), cfg, ms, eval)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failures) != 0 || len(s.Matrices) != len(ms) {
		t.Fatalf("%d results, %d failures; want all %d to succeed", len(s.Matrices), len(s.Failures), len(ms))
	}
	degraded := reg.Counter("sparseorder_governor_degradations_total",
		"matrices degraded to a solo run with the pool drained").Value()
	if degraded == 0 {
		t.Error("no solo degradation recorded for the over-budget matrix")
	}
	admitted := reg.Counter("sparseorder_governor_admitted_bytes_total",
		"cumulative estimated bytes admitted into the pool").Value()
	if admitted == 0 {
		t.Error("admitted-bytes counter stayed zero")
	}
}
