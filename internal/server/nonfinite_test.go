package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparseorder/internal/admit"
)

// chainMM is a 1D Laplacian chain of n rows in Matrix Market form whose
// first diagonal entry is spelled diag0.
func chainMM(n int, diag0 string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, 3*n-2)
	for i := 1; i <= n; i++ {
		d := "2"
		if i == 1 {
			d = diag0
		}
		fmt.Fprintf(&b, "%d %d %s\n", i, i, d)
		if i < n {
			fmt.Fprintf(&b, "%d %d -1\n%d %d -1\n", i, i+1, i+1, i)
		}
	}
	return []byte(b.String())
}

// TestNonFiniteMatrixRejected: the Matrix Market reader accepts nan and
// inf spellings, but the daemon serves finite matrices only, so such an
// upload is a classified 400 and never reaches the cache.
func TestNonFiniteMatrixRejected(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, v := range []string{"nan", "NaN", "inf", "-Infinity"} {
		res, err := ts.Client().Post(ts.URL+"/matrices", "text/plain", bytes.NewReader(chainMM(40, v)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(res.Body)
		res.Body.Close()
		wantClass(t, res, raw, http.StatusBadRequest, admit.FailError)
		if !strings.Contains(string(raw), "not finite") {
			t.Errorf("%s: error %s does not name the non-finite value", v, raw)
		}
	}
	if n := srv.Cache().Len(); n != 0 {
		t.Errorf("%d non-finite uploads landed in the cache", n)
	}
}

// TestNonFiniteXRejected: JSON has no NaN or Inf literal, and a number
// beyond float64 range fails decoding, so a non-finite x is a classified
// 400 before any multiply.
func TestNonFiniteXRejected(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, up := postUpload(t, ts, chainMM(3, "2"))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", res.StatusCode)
	}
	for _, body := range []string{`{"x":[1e999,1,1]}`, `{"x":[NaN,1,1]}`, `{"x":[1,-Infinity,1]}`} {
		res, err := ts.Client().Post(ts.URL+"/spmv/"+up.Key, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(res.Body)
		res.Body.Close()
		wantClass(t, res, raw, http.StatusBadRequest, admit.FailError)
	}
}

// TestOverflowingProductIsClassified is the empty-200 regression: a finite
// matrix and a finite x whose product overflows to ±Inf cannot be encoded
// as JSON, and the response must be a classified error with a body, never
// a 200 with an empty body.
func TestOverflowingProductIsClassified(t *testing.T) {
	srv := mustNew(t, Config{Threads: 1, Obs: newTestObs()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, up := postUpload(t, ts, chainMM(30, "1e308"))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d", res.StatusCode)
	}
	x := make([]float64, 30)
	for i := range x {
		x[i] = 10
	}
	res2, raw := postSpMV(t, ts, up.Key, x)
	wantClass(t, res2, raw, http.StatusInternalServerError, admit.FailError)
	if !strings.Contains(string(raw), "encoding response") {
		t.Errorf("error %s does not name the encode failure", raw)
	}
	// A representable product on the same matrix still answers 200.
	for i := range x {
		x[i] = 0
	}
	res3, raw3 := postSpMV(t, ts, up.Key, x)
	if res3.StatusCode != http.StatusOK || len(decodeY(t, raw3)) != 30 {
		t.Fatalf("finite product: status %d body %s", res3.StatusCode, raw3)
	}
}
