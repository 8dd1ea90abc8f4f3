package sklang

import (
	"testing"

	"metajit/internal/mtjit"
	"metajit/internal/pylang"
)

// TestBaselineTieredScheme runs a tail-recursive Scheme loop under the
// two-tier configuration: tier-1 code must engage on the self-tail-call
// merge point (the lowering is shared with the Python guest since both
// compile onto the same bytecode VM), the loop must still promote to a
// trace, and the result must match plain interpretation.
func TestBaselineTieredScheme(t *testing.T) {
	src := `
(define (loop i n acc)
  (if (>= i n)
      acc
      (loop (+ i 1) n (+ acc i))))

(define (main) (loop 0 5000 0))
`
	want, _ := runScheme(t, src, pylang.Config{})
	got, vm := runScheme(t, src, pylang.Config{
		Engine: &mtjit.Config{Threshold: 13, BaselineThreshold: 3},
	})
	if got.I != want.I {
		t.Fatalf("tiered result = %v, interp = %v", got, want)
	}
	st := vm.Eng.Stats()
	if st.BaselinesCompiled == 0 || st.BaselineEnters == 0 {
		t.Fatalf("baseline tier not engaged on Scheme guest: %+v", st)
	}
	if st.LoopsCompiled == 0 {
		t.Fatalf("tiered loop never promoted to a trace: %+v", st)
	}
	if err := vm.Eng.Validate(); err != nil {
		t.Fatalf("engine validation: %v", err)
	}
}
