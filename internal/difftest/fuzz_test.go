package difftest

import (
	"testing"

	"metajit/internal/harness"
	"metajit/internal/mtjit"
)

// The fuzz targets feed arbitrary bytes through the deterministic
// program generators and run the resulting guest program under the full
// configuration matrix; any disagreement with the interpreter, guest VM
// panic, or cross-layer invariant violation fails the input. The seed
// corpus under testdata/fuzz is replayed by plain `go test`, so every
// divergence ever found stays pinned; `make fuzz` (or
// `go test -fuzz=FuzzPylangDifferential ./internal/difftest`) explores
// new inputs.

func FuzzPylangDifferential(f *testing.F) {
	for i := uint64(0); i < 8; i++ {
		f.Add(seedBytes(i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := GenPylang(data)
		if _, err := RunMatrix(src, false); err != nil {
			t.Fatalf("%v\nprogram:\n%s", err, src)
		}
	})
}

func FuzzSklangDifferential(f *testing.F) {
	for i := uint64(0); i < 8; i++ {
		f.Add(seedBytes(i | 1<<32))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := GenSklang(data)
		if _, err := RunMatrix(src, true); err != nil {
			t.Fatalf("%v\nprogram:\n%s", err, src)
		}
	})
}

// FuzzTieredPromotion stresses the tier-1/tier-2 interaction: the input
// bytes pick the baseline, hot, and bridge thresholds AND a sparse
// baseline-guard failure pattern, then generate a pylang program.
// GenPylang writes its globals only after every loop and never rebinds a
// helper, so no compiled dependency is invalidated here: this target
// covers promotion and forced tier-1 deopts interleaving mid-loop, not
// InvalidateGlobal (TestGlobalInvalidation does; a generator that
// reaches it is ROADMAP item 15). The tiered run must agree with the
// plain interpreter on everything.
func FuzzTieredPromotion(f *testing.F) {
	for i := uint64(0); i < 8; i++ {
		f.Add(seedBytes(i | 2<<32))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDecider(data)
		baseT := d.rangeInt(1, 4)
		hotT := d.rangeInt(baseT+1, baseT+12)
		bridgeT := d.rangeInt(1, 3)
		// mask==0 disables forced failures so clean promotion is also
		// covered; otherwise roughly 1/8..1/2 of guard executions fail.
		mask := uint64(d.intn(8))
		src := GenPylang(data)

		tiered := Cell{Name: "tiered-fuzz", VM: harness.VMPyPyTiered, Opt: harness.Options{
			BaselineThreshold: baseT, Threshold: hotT, BridgeThreshold: bridgeT,
		}}
		if mask != 0 {
			tiered.Opt.Guest = forceTier(func(c *mtjit.TierCode, id uint64) bool {
				return (id+c.EnterCount+c.DeoptCount)&7 == mask
			})
		}
		cells := []Cell{interp, tiered}
		if _, err := RunCells(src, false, cells); err != nil {
			t.Fatalf("thresholds base=%d hot=%d bridge=%d mask=%d: %v\nprogram:\n%s",
				baseT, hotT, bridgeT, mask, err, src)
		}
	})
}

// FuzzAmalgamatedTiering stresses the full three-tier amalgamation: the
// input bytes pick all four thresholds (baseline, hot, bridge, method),
// whether the adaptive controller drives promotion, AND a sparse
// method-guard failure pattern, then generate a pylang program. Method
// installation invalidates live baseline fragments, traces and method
// code coexist, and forced tier-2 deopts land mid-loop — the run must
// still agree with the plain interpreter on everything.
func FuzzAmalgamatedTiering(f *testing.F) {
	for i := uint64(0); i < 8; i++ {
		f.Add(seedBytes(i | 3<<32))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newDecider(data)
		baseT := d.rangeInt(1, 4)
		hotT := d.rangeInt(baseT+1, baseT+12)
		bridgeT := d.rangeInt(1, 3)
		methodT := d.rangeInt(hotT, hotT+16)
		adaptive := d.chance(50)
		// mask==0 disables forced failures so clean amalgamation is also
		// covered; otherwise roughly 1/8..1/2 of guard executions fail.
		mask := uint64(d.intn(8))
		src := GenPylang(data)

		amalg := Cell{Name: "amalg-fuzz", VM: harness.VMPyPyAmalg, Opt: harness.Options{
			BaselineThreshold: baseT, Threshold: hotT, BridgeThreshold: bridgeT,
			MethodThreshold: methodT, Adaptive: adaptive,
		}}
		if mask != 0 {
			amalg.Opt.Guest = forceTier(func(c *mtjit.TierCode, id uint64) bool {
				return c.Tier == mtjit.MethodTier && (id+c.EnterCount+c.DeoptCount)&7 == mask
			})
		}
		cells := []Cell{interp, amalg}
		if _, err := RunCells(src, false, cells); err != nil {
			t.Fatalf("thresholds base=%d hot=%d bridge=%d method=%d adaptive=%v mask=%d: %v\nprogram:\n%s",
				baseT, hotT, bridgeT, methodT, adaptive, mask, err, src)
		}
	})
}
