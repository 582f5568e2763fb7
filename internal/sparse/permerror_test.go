package sparse

import (
	"errors"
	"strings"
	"testing"
)

// TestPermValidate pins the validation taxonomy: identity is valid, and
// the first out-of-range or duplicated value is located precisely.
func TestPermValidate(t *testing.T) {
	if err := Identity(8).Validate(); err != nil {
		t.Errorf("identity invalid: %v", err)
	}
	if err := (Perm{}).Validate(); err != nil {
		t.Errorf("empty perm invalid: %v", err)
	}
	if err := (Perm{2, 0, 1}).Validate(); err != nil {
		t.Errorf("valid 3-cycle rejected: %v", err)
	}

	var pe *PermError
	err := (Perm{0, 3, 1}).Validate()
	if !errors.As(err, &pe) {
		t.Fatalf("out-of-range: err = %v, want *PermError", err)
	}
	if pe.N != 3 || pe.Index != 1 || pe.Value != 3 || pe.Dup != -1 {
		t.Errorf("out-of-range PermError = %+v", pe)
	}
	if !strings.Contains(err.Error(), "out-of-range") {
		t.Errorf("message %q", err.Error())
	}

	err = (Perm{1, 0, 1}).Validate()
	if !errors.As(err, &pe) {
		t.Fatalf("duplicate: err = %v, want *PermError", err)
	}
	if pe.N != 3 || pe.Index != 2 || pe.Value != 1 || pe.Dup != 0 {
		t.Errorf("duplicate PermError = %+v", pe)
	}
	if !strings.Contains(err.Error(), "same value") {
		t.Errorf("message %q", err.Error())
	}

	err = (Perm{-1, 0}).Validate()
	if !errors.As(err, &pe) || pe.Value != -1 || pe.Index != 0 {
		t.Errorf("negative value: err = %v", err)
	}
}

// TestPermuteRejectsInvalidPerm checks every permutation entry point
// refuses a non-bijective permutation with a *PermError instead of
// producing a corrupt matrix.
func TestPermuteRejectsInvalidPerm(t *testing.T) {
	coo := NewCOO(3, 3, 3)
	coo.Append(0, 0, 1)
	coo.Append(1, 1, 2)
	coo.Append(2, 2, 3)
	a, err := coo.ToCSRWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	bad := Perm{0, 0, 2}
	var pe *PermError
	if _, err := PermuteSymmetricWorkers(a, bad, 1); !errors.As(err, &pe) {
		t.Errorf("PermuteSymmetricWorkers(1): err = %v, want *PermError", err)
	}
	if _, err := PermuteRowsWorkers(a, bad, 1); !errors.As(err, &pe) {
		t.Errorf("PermuteRowsWorkers(1): err = %v, want *PermError", err)
	}
	if _, err := PermuteCols(a, bad); !errors.As(err, &pe) {
		t.Errorf("PermuteCols: err = %v, want *PermError", err)
	}
	if _, err := PermuteSymmetricWorkers(a, bad, 2); !errors.As(err, &pe) {
		t.Errorf("PermuteSymmetricWorkers(2): err = %v, want *PermError", err)
	}
	if _, err := PermuteRowsWorkers(a, bad, 2); !errors.As(err, &pe) {
		t.Errorf("PermuteRowsWorkers(2): err = %v, want *PermError", err)
	}
}
