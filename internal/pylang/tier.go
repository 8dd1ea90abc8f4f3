package pylang

import (
	"sort"

	"metajit/internal/mtjit"
)

// This file lowers guest bytecode into lower-tier code and keeps the
// dispatch loop's residency in it: the per-bytecode templates that
// mtjit.Engine.CompileTier strings together, over one loop extent
// (tier-1 baseline code) or a whole function (tier-2 method code). The
// lowering is deliberately dumb — one template per bytecode, no
// optimization, generic guards — so the tier's cost model (and nothing
// else) is what distinguishes it from plain interpretation.

// templateAsmLen is the compiled footprint of one bytecode's template,
// in synthetic instructions: the next-handler jump plus the generic
// handler body. Both tiers use it (the method compiler drops the
// threaded next-handler jump but adds register moves; the net is a wash
// at this granularity).
func templateAsmLen(in Instr) int {
	switch in.Op {
	case BCLoadConst, BCLoadLocal, BCStoreLocal, BCPop, BCDup, BCDup2:
		return 3
	case BCJump:
		return 2
	case BCPopJumpIfFalse, BCPopJumpIfTrue, BCJumpIfFalseOrPop, BCJumpIfTrueOrPop, BCUnaryNot:
		return 5
	case BCLoadGlobal, BCStoreGlobal:
		return 6
	case BCBinary, BCCompare, BCUnaryNeg:
		return 8
	case BCLoadAttr, BCStoreAttr, BCIndex, BCStoreIndex, BCLen, BCUnpack2:
		return 9
	case BCCall, BCReturn:
		return 12
	case BCBuildList, BCBuildTuple, BCBuildDict, BCSlice, BCStoreSlice, BCIterPrep:
		return 14
	default:
		return 6
	}
}

// loopEnd computes the loop extent at a header: the last backward jump
// to it. A header with no backward jump (a merge point that is not a
// bytecode loop, e.g. a function entry used for tail calls into an
// extent we cannot delimit) reports -1.
func loopEnd(code *Code, header int) int {
	end := -1
	for j := header; j < len(code.Instrs); j++ {
		if code.Instrs[j].Op == BCJump && int(code.Instrs[j].Arg) == header {
			end = j
		}
	}
	return end
}

// lower produces the templates for the inclusive pc range [start, end]
// of code, plus the sorted set of globals the range reads.
func lower(code *Code, start, end int) (ops []mtjit.TierOp, globals []string) {
	ops = make([]mtjit.TierOp, 0, end-start+1)
	seen := map[string]bool{}
	for pc := start; pc <= end; pc++ {
		in := code.Instrs[pc]
		ops = append(ops, mtjit.TierOp{PC: pc, AsmLen: templateAsmLen(in)})
		if in.Op == BCLoadGlobal {
			seen[code.Names[in.Arg]] = true
		}
	}
	globals = make([]string, 0, len(seen))
	for name := range seen {
		globals = append(globals, name)
	}
	sort.Strings(globals)
	return ops, globals
}

// compileTier lowers the pc range [start, end] of f's function and
// installs it as tier-t code, or blacklists the unit at f.PC if the
// range is empty (loopEnd found no closed loop; the function has no
// bytecode). Globals the range reads that are already known-mutated are
// excluded from the embedded-value dependencies (the template does a
// dict lookup for them, exactly like the interpreter), so recompilation
// after an invalidation converges.
func (vm *VM) compileTier(t mtjit.Tier, f *Frame, start, end int) {
	if end < start {
		vm.Eng.MarkTierFailed(t, mtjit.GreenKey{CodeID: f.Code.ID, PC: f.PC})
		return
	}
	ops, globals := lower(f.Code, start, end)
	deps := globals[:0]
	for _, name := range globals {
		if !vm.mutatedGlobals[name] {
			deps = append(deps, name)
		}
	}
	vm.Eng.CompileTier(t, f.Code.ID, start, end, ops, deps)
}

// enterTier makes the dispatch loop resident in c for frame f.
func (vm *VM) enterTier(c *mtjit.TierCode, f *Frame) {
	r := vm.resid[c.Tier]
	r.Code = c
	vm.tierCode = c
	vm.tierFrame = f
	vm.m.Reside(r)
	vm.Eng.EnterTier(c)
}

// leaveTier ends lower-tier residency, if any, and returns to the
// interpreter.
func (vm *VM) leaveTier() {
	if vm.tierCode == nil {
		return
	}
	vm.Eng.LeaveTier(vm.tierCode)
	vm.tierCode = nil
	vm.tierFrame = nil
	vm.m.Reside(nil)
}

// checkResidency runs at the top of the dispatch loop while resident:
// it drains a pending guard deopt and leaves residency when execution
// has moved outside the compiled region (loop exit, call, return) or
// the code was invalidated under us.
func (vm *VM) checkResidency() {
	f := vm.frames[len(vm.frames)-1]
	if vm.resid[vm.tierCode.Tier].TakeDeopt() {
		vm.Eng.TierDeopt(vm.tierCode)
		vm.leaveTier()
		return
	}
	if f != vm.tierFrame || vm.tierCode.Invalidated || !vm.tierCode.Covers(f.PC) {
		vm.leaveTier()
	}
}
