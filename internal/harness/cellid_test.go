package harness_test

import (
	"testing"

	"metajit/internal/bench"
	"metajit/internal/cluster"
	"metajit/internal/harness"
)

// TestSameCellsShareCellID: the pairs TestSpecResolvesDefaults holds to
// one Spec have one content address, so a worker memoizes and stores
// them once.
func TestSameCellsShareCellID(t *testing.T) {
	p := bench.ByName("telco")
	for _, c := range harness.SameCells {
		a, b := harness.Key(p, c.VM, c.A), harness.Key(p, c.VM, c.B)
		if ida, idb := cluster.IDOf(a), cluster.IDOf(b); ida != idb {
			t.Errorf("%s and %s have CellIDs %s and %s", a, b, ida.Short(), idb.Short())
		}
	}
}
