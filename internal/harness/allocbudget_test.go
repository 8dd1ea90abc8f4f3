//go:build !race

package harness

import (
	"runtime"
	"testing"

	"metajit/internal/bench"
)

// TestCellDoesNotAllocateOverBudget is host_allocs_per_kinstr on three
// fixed cells — two string-heavy, one array-heavy — so that the next
// regression of that metric names itself in `make allocs` without a
// benchmark run. A ceiling is the count measured when it was committed
// plus 3 %; before strings and small arrays shared their header's
// allocation the three read 12.70, 18.08 and 7.88.
func TestCellDoesNotAllocateOverBudget(t *testing.T) {
	for _, c := range []struct {
		bench   string
		vm      VMKind
		ceiling float64 // host allocations per 1000 simulated instructions
	}{
		{"telco", VMPyPyJIT, 5.31},      // measured 5.152
		{"bm_mako", VMCPython, 11.32},   // measured 10.988
		{"binarytrees", VMRacket, 4.08}, // measured 3.958
	} {
		p := bench.ByName(c.bench)
		if p == nil {
			t.Fatalf("no benchmark %q", c.bench)
		}
		best := 0.0
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(p, c.vm, Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perK := float64(after.Mallocs-before.Mallocs) / float64(res.Instrs) * 1000
			if i == 0 || perK < best {
				best = perK
			}
		}
		t.Logf("%s/%s: %.2f host allocations per kinstr (ceiling %.2f)", c.bench, c.vm, best, c.ceiling)
		if best > c.ceiling {
			t.Errorf("%s/%s: %.2f host allocations per kinstr, over the committed ceiling %.2f",
				c.bench, c.vm, best, c.ceiling)
		}
	}
}
