package mtjit

import (
	"fmt"

	"metajit/internal/heap"
)

// This file is the executor's view of an installed trace. Trace.Ops is
// the IR — what the optimizer rewrites and what verify.go, jitlog and the
// resume data read — and it is lowered once, at install, into the
// predecoded array Execute runs: every "register or constant?" question
// and every address computation is answered here, not per executed op.
//
// Register file. One []heap.Value per running trace holds everything an
// operand can name, so that an operand is one indexed load:
//
//	file[regBase-1-i]   constant i (Trace.Consts, reversed)
//	file[regBase]       always Nil: register 0, the "no operand" ref
//	file[regBase+r]     register r, 1 <= r < NumRegs
//
// with regBase = len(Consts). A Ref therefore resolves as
// file[regBase+int(ref)] whether it names a register or a constant, which
// is how the exit paths read the Refs that stay in IR form (jump and call
// arguments, resume snapshots) without a decision per ref.

// inst is one predecoded instruction (56 bytes against Op's 112).
type inst struct {
	opc Opcode
	// n is the instruction count the handler retires where the opcode
	// table, not the handler, fixes it: a guard's compare (AsmLen-1, zero
	// for guard_not_invalidated) and an allocation's inline fast path
	// (AsmLen-2).
	n int32
	// a, b, c are operand slots (register-file indexes; an absent operand
	// reads the Nil slot). res is the result slot, or -1 for none.
	a, b, c, res int32
	aux          int64
	// pc is the op's absolute simulated address.
	pc    uint64
	shape *heap.Shape
	// op is the IR node, for what only exits and calls read (Args, Fn,
	// Thunk, Target, Resume, GuardID, BCProgress) and the guard's
	// counters.
	op *Op
}

// predecode lowers t.Ops into t.code. It runs after Optimize and assemble:
// it needs the final op list and where it lies.
func (t *Trace) predecode() {
	t.regBase = len(t.Consts)
	t.code = make([]inst, len(t.Ops))
	pc := t.AsmBase
	for i := range t.Ops {
		op := &t.Ops[i]
		x := &t.code[i]
		*x = inst{
			opc: op.Opc,
			a:   t.slot(op.A), b: t.slot(op.B), c: t.slot(op.C),
			res:   -1,
			aux:   op.Aux,
			pc:    pc,
			shape: op.Shape,
			op:    op,
		}
		if op.Res != RefNone && op.Res != RefUnused {
			x.res = t.slot(op.Res)
		}
		switch {
		case op.Opc.IsGuard():
			// guard_not_invalidated lowers to zero instructions (the
			// invalidation path patches the code instead); like every
			// guard it still retires the branch that models the exit.
			x.n = int32(max(op.Opc.AsmLen()-1, 0))
		case op.Opc == OpNewWithVtable || op.Opc == OpNewArray:
			x.n = int32(op.Opc.AsmLen() - 2)
		}
		pc += uint64(op.Opc.AsmLen()) * 4
	}
}

// slot returns the register-file index a ref resolves to. RefNone reads
// as Nil, like the unused ref; a ref that names neither a register nor a
// constant of the trace is a recorder or optimizer bug.
func (t *Trace) slot(r Ref) int32 {
	if r == RefNone {
		r = RefUnused
	}
	if int(r) < -len(t.Consts) || int(r) >= t.NumRegs {
		panic(fmt.Sprintf("mtjit: trace %d: ref %d names no register (of %d) or constant (of %d)",
			t.ID, r, t.NumRegs, len(t.Consts)))
	}
	return int32(t.regBase + int(r))
}

// getRegs returns a register file for one pass chain over t: constants in
// place, every register Nil (same semantics as make). Files are pooled per
// trace — each fits by construction — and belong to the trace's engine
// (one run), never to a sync.Pool or a global: concurrent cells share
// nothing.
func (t *Trace) getRegs() []heap.Value {
	if k := len(t.files); k > 0 {
		r := t.files[k-1]
		t.files = t.files[:k-1]
		return r
	}
	r := make([]heap.Value, t.regBase+t.NumRegs)
	for i, c := range t.Consts {
		r[t.regBase-1-i] = c
	}
	return r
}

// putRegs returns a register file to t's pool, registers cleared: a pooled
// file keeps no guest object alive on the host. The caller must have taken
// it out of Engine.active (or replaced its entry) first.
func (t *Trace) putRegs(r []heap.Value) {
	clear(r[t.regBase:])
	t.files = append(t.files, r)
}
