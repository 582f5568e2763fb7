// Command fillin computes the Cholesky fill-in ratio nnz(L)/nnz(A) of a
// symmetric matrix under the study's symmetric orderings (paper §4.6),
// using the Gilbert-Ng-Peyton row/column counting algorithm. The Gray
// ordering is excluded because it does not preserve symmetry.
//
// Usage:
//
//	fillin [-gen NAME] [input.mtx]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sparseorder/internal/cholesky"
	"sparseorder/internal/gen"
	"sparseorder/internal/reorder"
	"sparseorder/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fillin: ")
	genName := flag.String("gen", "", "use a named matrix from the synthetic collection")
	seed := flag.Int64("seed", 42, "collection seed / partitioner seed")
	flag.Parse()

	var a *sparse.CSR
	switch {
	case *genName != "":
		for _, m := range gen.Collection(gen.ScaleStudy, *seed) {
			if m.Name == *genName {
				a = m.A
			}
		}
		if a == nil {
			log.Fatalf("no matrix named %q in the collection", *genName)
		}
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		a, err = sparse.ReadMatrixMarketWorkers(f, 0)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("usage: fillin [-gen NAME | input.mtx]")
	}
	if !a.IsStructurallySymmetric() {
		log.Print("pattern is unsymmetric; using A+Aᵀ")
		var err error
		a, err = sparse.Symmetrize(a)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("matrix: %dx%d, %d nonzeros\n", a.Rows, a.Cols, a.NNZ())
	fmt.Printf("%-10s %14s %12s\n", "order", "nnz(L)", "fill ratio")
	for _, alg := range reorder.AllOrderings {
		if !alg.Symmetric() {
			continue
		}
		b, _, err := reorder.Apply(alg, a, reorder.Options{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		l, err := cholesky.FactorNNZ(b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %14d %12.3f\n", alg, l, float64(l)/float64(b.NNZ()))
	}
}
