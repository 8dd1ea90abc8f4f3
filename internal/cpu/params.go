// Package cpu models the microarchitecture the paper measures with
// performance counters: a superscalar core with branch prediction and a
// two-level cache hierarchy. It consumes the synthetic instruction stream
// (classes and blocks from internal/isa) that every simulated VM component
// retires into its Machine and produces retired-instruction counts, cycles, IPC, branch rates, and
// misprediction rates — globally and per framework phase — replacing the
// paper's PAPI/perf measurements.
package cpu

import (
	"math"

	"metajit/internal/isa"
)

// UnitsPerCycle is the machine's cycle resolution: it counts cycles as
// whole units of 1/UnitsPerCycle cycle, so every sum is exact and no
// total depends on the order of its additions.
const UnitsPerCycle = 1000

// Units converts cycles to the nearest whole number of units.
func Units(cycles float64) uint64 { return uint64(math.Round(cycles * UnitsPerCycle)) }

// CyclesOf converts units to cycles, the one conversion every reader of
// a domain's cycles goes through.
func CyclesOf(units uint64) float64 { return float64(units) / UnitsPerCycle }

// Params holds the microarchitectural parameters of the modeled core. The
// defaults approximate the paper's Haswell-class test machine: a 4-wide
// out-of-order core with a ~14-cycle misprediction penalty.
type Params struct {
	// ClockHz is the core clock used to convert simulated cycles to
	// seconds (the paper's testbed runs at 3 GHz).
	ClockHz float64

	// IssueCost is the average issue/retire cost in cycles per
	// instruction of each class, assuming no hazards. For a 4-wide core
	// the baseline is 0.25; long-latency classes cost more because their
	// latency is rarely fully hidden.
	IssueCost [isa.NumClasses]float64

	// MispredictPenalty is the pipeline refill cost in cycles of a
	// mispredicted branch (conditional, indirect, or return).
	MispredictPenalty float64

	// LoadUseStall is the average exposed load-to-use latency in cycles
	// added per L1 hit; pointer-chasing code cannot hide all of the
	// 4-5 cycle L1 latency.
	LoadUseStall float64

	// L1MissPenalty and L2MissPenalty are the additional cycles exposed
	// by an L1 miss that hits L2, and by an L2 miss to memory. Modeled
	// as partially hidden by out-of-order execution.
	L1MissPenalty float64
	L2MissPenalty float64

	// Branch predictor geometry. Normalized clamps the table sizes to
	// MaxPredictorBits and the history to 64 bits.
	GShareBits  uint // log2 of pattern-history-table entries
	HistoryBits uint // global-history length
	BTBBits     uint // log2 of BTB entries (indirect branches)
	RASDepth    int  // return-address stack depth

	// Cache geometry (direct-mapped; sizes in bytes).
	L1Size, L1Line int
	L2Size, L2Line int
}

// DefaultParams returns the Haswell-like configuration used for all
// experiments.
func DefaultParams() Params {
	p := Params{
		ClockHz:           3e9,
		MispredictPenalty: 14,
		LoadUseStall:      0.35,
		L1MissPenalty:     8,
		L2MissPenalty:     60,
		GShareBits:        14,
		HistoryBits:       12,
		BTBBits:           12,
		RASDepth:          16,
		L1Size:            32 << 10,
		L1Line:            64,
		L2Size:            1 << 20,
		L2Line:            64,
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		p.IssueCost[c] = 0.25
	}
	p.IssueCost[isa.Mul] = 0.6
	p.IssueCost[isa.Div] = 12
	p.IssueCost[isa.FPU] = 0.4
	p.IssueCost[isa.FMul] = 0.5
	p.IssueCost[isa.FDiv] = 10
	p.IssueCost[isa.Load] = 0.35
	p.IssueCost[isa.Store] = 0.3
	p.IssueCost[isa.Branch] = 0.3
	p.IssueCost[isa.Jump] = 0.25
	p.IssueCost[isa.IndirectJump] = 0.5
	p.IssueCost[isa.Call] = 0.4
	p.IssueCost[isa.IndirectCall] = 0.6
	p.IssueCost[isa.Ret] = 0.4
	p.IssueCost[isa.Nop] = 0.25
	return p
}

// MaxPredictorBits is the largest GShareBits and BTBBits the model
// builds: 2^20 pattern-history counters (1 MiB) and 2^20 BTB entries
// (16 MiB of host memory), far beyond any real predictor. A larger
// request would ask for terabytes, and at 64 bits the table size wraps
// to zero entries.
const MaxPredictorBits = 20

// Normalized returns p with its geometry rounded to the nearest
// configuration the model can actually represent:
//
//   - cache lines become powers of two, at least 8 bytes;
//   - cache sizes are rounded up so the set count (size/line) is a
//     nonzero power of two, which lets the cache index with a mask and
//     removes the divide-by-zero when size < line;
//   - a negative RAS depth is clamped to zero (no return prediction);
//   - GShareBits and BTBBits are clamped to MaxPredictorBits, and
//     HistoryBits to 64, the width of the history register;
//   - every cost is rounded to the nearest whole unit (UnitsPerCycle),
//     a negative one to zero.
//
// cpu.New normalizes its Params, so Machine.Params always reports the
// geometry actually modeled. Already-valid parameters (including every
// configuration in DefaultParams and the ablation set) pass through
// unchanged.
func (p Params) Normalized() Params {
	p.L1Size, p.L1Line = normCacheGeom(p.L1Size, p.L1Line)
	p.L2Size, p.L2Line = normCacheGeom(p.L2Size, p.L2Line)
	if p.RASDepth < 0 {
		p.RASDepth = 0
	}
	p.GShareBits = min(p.GShareBits, MaxPredictorBits)
	p.BTBBits = min(p.BTBBits, MaxPredictorBits)
	p.HistoryBits = min(p.HistoryBits, 64)
	for i, c := range p.IssueCost {
		p.IssueCost[i] = CyclesOf(Units(max(c, 0)))
	}
	for _, c := range []*float64{&p.MispredictPenalty, &p.LoadUseStall, &p.L1MissPenalty, &p.L2MissPenalty} {
		*c = CyclesOf(Units(max(*c, 0)))
	}
	return p
}

func normCacheGeom(size, line int) (int, int) {
	if line < 8 {
		line = 8
	}
	line = ceilPow2(line)
	if size < line {
		size = line
	}
	sets := ceilPow2(size / line)
	return sets * line, line
}

// ceilPow2 returns the smallest power of two >= n, for n >= 1.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// StaticPredictorParams returns DefaultParams with the dynamic predictors
// degraded to static not-taken/last-target prediction; used by the
// predictor-sensitivity ablation bench.
func StaticPredictorParams() Params {
	p := DefaultParams()
	p.GShareBits = 0 // static: predict not-taken
	p.HistoryBits = 0
	return p
}
