package admit

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestClassify pins the failure taxonomy.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FailureClass
	}{
		{errors.New("x"), FailError},
		{context.DeadlineExceeded, FailTimeout},
		{context.Canceled, FailCanceled},
		{&PanicError{Value: "v", Stack: "s"}, FailPanic},
		{fmt.Errorf("m: %w", context.DeadlineExceeded), FailTimeout},
		{fmt.Errorf("m: %w", &PanicError{Value: "v"}), FailPanic},
		{fmt.Errorf("m: %w", ErrResourceBudget), FailResource},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
	if FailError.Retryable() || FailCanceled.Retryable() {
		t.Error("error/canceled must not be retryable")
	}
	if !FailTimeout.Retryable() || !FailPanic.Retryable() {
		t.Error("timeout/panic must be retryable")
	}
}
