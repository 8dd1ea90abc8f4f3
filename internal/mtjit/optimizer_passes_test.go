package mtjit

import (
	"fmt"
	"reflect"
	"testing"

	"metajit/internal/aot"
	"metajit/internal/heap"
)

// This file checks the per-pass semantics contract behind the ablation
// experiments: whichever OptConfig subset runs, an optimized trace must
// compute exactly what the recorded trace computed, and the op count the
// optimizer reports removing must match the IR delta. The fixture is a
// hand-built loop trace with material for every pass — foldable constant
// arithmetic, a redundant class guard, a forwardable field load on a
// non-escaping allocation, a dead subtraction — evaluated for several
// iterations by a heap-free IR interpreter.

// passFixture builds a fresh copy of the fixture loop. Inputs: r1 = i,
// r2 = limit, r3 = accumulator.
func passFixture() *Trace {
	sh := &heap.Shape{Name: "Box", ID: 41}
	fn := &aot.Func{ID: 1, Name: "fixture.residual"}
	thunk := func(a []heap.Value) heap.Value { return heap.IntVal(a[0].I % 97) }
	resume := func() *ResumeState {
		return &ResumeState{Frames: []FrameSnap{{Slots: []Ref{1, 2, 3}, NumLocals: 3}}}
	}
	ops := []Op{
		{Opc: OpIntAdd, A: ConstRef(0), B: ConstRef(1), Res: 4},      // 2+3 -> 5 (fold)
		{Opc: OpGuardClass, A: 1, Shape: ShapeIntKind, GuardID: 1},   // keeps i an int
		{Opc: OpGuardClass, A: 1, Shape: ShapeIntKind, GuardID: 2},   // redundant (guards)
		{Opc: OpIntAddOvf, A: 1, B: ConstRef(0), Res: 5},             // i+2
		{Opc: OpGuardNoOverflow, GuardID: 3},                         //
		{Opc: OpNewWithVtable, Shape: sh, Aux: 1, Res: 6},            // non-escaping (virtuals)
		{Opc: OpSetfieldGC, A: 6, B: 5, Aux: 0},                      //
		{Opc: OpGetfieldGC, A: 6, Aux: 0, Res: 7},                    // forwards to r5 (cse)
		{Opc: OpIntMul, A: 7, B: 4, Res: 8},                          // (i+2)*5
		{Opc: OpIntSub, A: 8, B: 8, Res: 9},                          // unused (dce)
		{Opc: OpIntLt, A: 5, B: 2, Res: 10},                          //
		{Opc: OpGuardTrue, A: 10, GuardID: 4},                        //
		{Opc: OpCall, Args: []Ref{8}, Res: 11, Fn: fn, Thunk: thunk}, // residual (kept always)
		{Opc: OpIntAdd, A: 3, B: 11, Res: 12},                        // acc'
		{Opc: OpJump, Args: []Ref{5, 2, 12}},                         //
	}
	for i := range ops {
		if ops[i].Opc.IsGuard() {
			ops[i].Resume = resume()
		}
	}
	t := buildTrace(3, []heap.Value{heap.IntVal(2), heap.IntVal(3)}, ops)
	t.predecode()
	return t
}

// evalFixture interprets the trace IR for iters loop iterations and
// returns the concrete jump-arg history — the loop-carried state after
// every iteration, which is the trace's observable semantics.
func evalFixture(t *Trace, inputs []heap.Value, iters int) ([][]int64, error) {
	regs := make([]heap.Value, t.NumRegs)
	for i, r := range t.Entry.Frames[0].Slots {
		regs[r] = inputs[i]
	}
	val := func(r Ref) heap.Value {
		if r.IsConst() {
			return t.Consts[r.ConstIndex()]
		}
		if r == RefUnused || r == RefNone {
			return heap.Nil
		}
		return regs[r]
	}
	var history [][]int64
	lastOvf := false
	for pc := 0; pc < len(t.Ops); pc++ {
		op := &t.Ops[pc]
		switch op.Opc {
		case OpLabel:
		case OpJump:
			state := make([]int64, len(op.Args))
			vals := make([]heap.Value, len(op.Args))
			for i, a := range op.Args {
				vals[i] = val(a)
				state[i] = vals[i].I
			}
			history = append(history, state)
			if len(history) == iters {
				return history, nil
			}
			for i, r := range t.Entry.Frames[0].Slots {
				regs[r] = vals[i]
			}
			pc = -1
		case OpGuardClass:
			v := val(op.A)
			sh := KindShape(v.Kind)
			if v.Kind == heap.KindRef {
				sh = v.O.Shape
			}
			if sh != op.Shape {
				return nil, fmt.Errorf("op %d: guard_class failed", pc)
			}
		case OpGuardTrue:
			if !val(op.A).Truthy() {
				return nil, fmt.Errorf("op %d: guard_true failed", pc)
			}
		case OpGuardNoOverflow:
			if lastOvf != (op.Aux == 1) {
				return nil, fmt.Errorf("op %d: guard_no_overflow failed", pc)
			}
		case OpGuardNotInvalidated:
		case OpIntAddOvf:
			r, ovf := addOvf(val(op.A).I, val(op.B).I)
			lastOvf = ovf
			regs[op.Res] = heap.IntVal(r)
		case OpNewWithVtable:
			regs[op.Res] = heap.RefVal(&heap.Obj{Shape: op.Shape, Fields: make([]heap.Value, op.Aux)})
		case OpSetfieldGC:
			val(op.A).O.Fields[op.Aux] = val(op.B)
		case OpGetfieldGC:
			regs[op.Res] = val(op.A).O.Fields[op.Aux]
		case OpCall:
			args := make([]heap.Value, len(op.Args))
			for i, a := range op.Args {
				args[i] = val(a)
			}
			regs[op.Res] = op.Thunk(args)
		default:
			a := val(op.A)
			var res heap.Value
			var ok bool
			if isBinary(op.Opc) {
				res, ok = evalPureBin(op.Opc, a, val(op.B))
			} else {
				res, ok = evalPureUn(op.Opc, a)
			}
			if !ok {
				return nil, fmt.Errorf("op %d: cannot evaluate %s", pc, op.Opc.Name())
			}
			regs[op.Res] = res
		}
	}
	return nil, fmt.Errorf("trace fell off the end")
}

// TestPassAblationsPreserveSemantics runs the fixture under every
// ablation the experiment matrix uses (plus each pass alone) and demands
// the optimized trace computes the recorded trace's loop-carried state,
// that the optimizer's removed-op count matches the IR delta, and that
// the result still validates structurally.
func TestPassAblationsPreserveSemantics(t *testing.T) {
	inputs := []heap.Value{heap.IntVal(0), heap.IntVal(1 << 40), heap.IntVal(0)}
	const iters = 8

	want, err := evalFixture(passFixture(), inputs, iters)
	if err != nil {
		t.Fatalf("reference evaluation: %v", err)
	}

	single := func(name string, set func(*OptConfig)) struct {
		name string
		cfg  OptConfig
	} {
		cfg := NoOpts()
		set(&cfg)
		return struct {
			name string
			cfg  OptConfig
		}{name, cfg}
	}
	ablate := func(name string, clear func(*OptConfig)) struct {
		name string
		cfg  OptConfig
	} {
		cfg := AllOpts()
		clear(&cfg)
		return struct {
			name string
			cfg  OptConfig
		}{name, cfg}
	}
	cases := []struct {
		name string
		cfg  OptConfig
	}{
		{"none", NoOpts()},
		{"all", AllOpts()},
		ablate("no-fold", func(c *OptConfig) { c.Fold = false }),
		ablate("no-guards", func(c *OptConfig) { c.Guards = false }),
		ablate("no-cse", func(c *OptConfig) { c.CSE = false }),
		ablate("no-virtuals", func(c *OptConfig) { c.Virtuals = false }),
		ablate("no-dce", func(c *OptConfig) { c.DCE = false }),
		single("only-fold", func(c *OptConfig) { c.Fold = true }),
		single("only-guards", func(c *OptConfig) { c.Guards = true }),
		single("only-cse", func(c *OptConfig) { c.CSE = true }),
		single("only-virtuals", func(c *OptConfig) { c.Virtuals = true }),
		single("only-dce", func(c *OptConfig) { c.DCE = true }),
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := passFixture()
			before := len(tr.Ops)
			removed := Optimize(tr, tc.cfg)
			if removed != before-len(tr.Ops) {
				t.Errorf("Optimize reported %d removed, IR shrank by %d",
					removed, before-len(tr.Ops))
			}
			tr.predecode()
			if err := ValidateTrace(tr); err != nil {
				t.Errorf("optimized trace is malformed: %v", err)
			}
			got, err := evalFixture(tr, inputs, iters)
			if err != nil {
				t.Fatalf("optimized evaluation: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("semantics changed:\n  recorded:  %v\n  optimized: %v", want, got)
			}
		})
	}

	// The full pipeline must actually bite on this fixture: the folded
	// add, the duplicate guard, the virtualized allocation pair, and the
	// dead sub are all removable.
	tr := passFixture()
	if removed := Optimize(tr, AllOpts()); removed < 5 {
		t.Errorf("full pipeline removed only %d ops from the fixture", removed)
	}
}
