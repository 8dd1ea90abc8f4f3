package sklang

import (
	"fmt"

	"metajit/internal/heap"
	"metajit/internal/mtjit"
	"metajit/internal/pylang"
)

// Load reads and compiles a program's top-level definitions into the VM.
func Load(vm *pylang.VM, src string) error {
	exprs, err := Read(src)
	if err != nil {
		return err
	}
	registerSchemeBuiltins(vm)
	for _, e := range exprs {
		if e.Head() != "define" {
			return fmt.Errorf("sklang: only top-level defines are supported, got %s", e)
		}
		if len(e.List) < 3 || !e.List[1].IsList() || len(e.List[1].List) == 0 {
			return fmt.Errorf("sklang: bad define %s", e)
		}
		sig := e.List[1]
		name := sig.List[0].Atom
		params := make([]string, 0, len(sig.List)-1)
		for _, p := range sig.List[1:] {
			params = append(params, p.Atom)
		}
		fc := &fnCompiler{
			vm:     vm,
			name:   name,
			params: params,
			env:    []map[string]int{{}},
		}
		fc.code = vm.NewCodeForFrontend(name, len(params))
		for _, p := range params {
			fc.bind(p)
		}
		body := e.List[2:]
		for i, b := range body {
			if err := fc.expr(b, i == len(body)-1); err != nil {
				return err
			}
			if i != len(body)-1 {
				fc.emit(pylang.BCPop, 0)
			}
		}
		fc.emit(pylang.BCReturn, 0)
		fc.code.NumLocals = fc.nLocals
		fc.code.Headers = make([]bool, len(fc.code.Instrs))
		if fc.hasTailSelf {
			fc.code.Headers[0] = true
		}
		vm.DefineFunctionGlobal(name, fc.code)
	}
	return nil
}

type fnCompiler struct {
	vm          *pylang.VM
	code        *pylang.Code
	name        string
	params      []string
	env         []map[string]int
	nLocals     int
	hasTailSelf bool
}

func (c *fnCompiler) emit(op pylang.BC, arg int32) int {
	c.code.Instrs = append(c.code.Instrs, pylang.Instr{Op: op, Arg: arg})
	return len(c.code.Instrs) - 1
}

func (c *fnCompiler) patch(at, target int) { c.code.Instrs[at].Arg = int32(target) }

func (c *fnCompiler) here() int { return len(c.code.Instrs) }

func (c *fnCompiler) constIdx(v heap.Value) int32 {
	for i, cv := range c.code.Consts {
		if cv.Eq(v) {
			return int32(i)
		}
	}
	c.code.Consts = append(c.code.Consts, v)
	return int32(len(c.code.Consts) - 1)
}

func (c *fnCompiler) nameIdx(n string) int32 {
	for i, s := range c.code.Names {
		if s == n {
			return int32(i)
		}
	}
	c.code.Names = append(c.code.Names, n)
	return int32(len(c.code.Names) - 1)
}

func (c *fnCompiler) bind(name string) int {
	i := c.nLocals
	c.nLocals++
	c.env[len(c.env)-1][name] = i
	return i
}

func (c *fnCompiler) lookup(name string) (int, bool) {
	for i := len(c.env) - 1; i >= 0; i-- {
		if idx, ok := c.env[i][name]; ok {
			return idx, true
		}
	}
	return 0, false
}

var binOps = map[string]pylang.BinKind{
	"modulo": pylang.BinMod, "quotient": pylang.BinFloorDiv,
	"remainder": pylang.BinMod, "expt": pylang.BinPow, "/": pylang.BinTrueDiv,
}

var cmpOps = map[string]pylang.CmpKind{
	"=": pylang.CmpEq, "<": pylang.CmpLt, "<=": pylang.CmpLe,
	">": pylang.CmpGt, ">=": pylang.CmpGe,
}

func (c *fnCompiler) expr(e *SExpr, tail bool) error {
	// Atoms.
	if e.Str {
		c.emit(pylang.BCLoadConst, c.constIdx(heap.RefVal(c.vm.Intern(e.Atom))))
		return nil
	}
	if e.Atom != "" {
		if e.Num {
			if e.IsInt {
				c.emit(pylang.BCLoadConst, c.constIdx(heap.IntVal(e.Int)))
			} else {
				c.emit(pylang.BCLoadConst, c.constIdx(heap.FloatVal(e.Flt)))
			}
			return nil
		}
		switch e.Atom {
		case "#t":
			c.emit(pylang.BCLoadConst, c.constIdx(heap.True))
			return nil
		case "#f":
			c.emit(pylang.BCLoadConst, c.constIdx(heap.False))
			return nil
		}
		if idx, ok := c.lookup(e.Atom); ok {
			c.emit(pylang.BCLoadLocal, int32(idx))
		} else {
			c.emit(pylang.BCLoadGlobal, c.nameIdx(e.Atom))
		}
		return nil
	}
	if len(e.List) == 0 {
		return fmt.Errorf("sklang: empty form")
	}
	head := e.Head()
	args := e.List[1:]

	switch head {
	case "if":
		if len(args) < 2 || len(args) > 3 {
			return fmt.Errorf("sklang: bad if %s", e)
		}
		if err := c.expr(args[0], false); err != nil {
			return err
		}
		jElse := c.emit(pylang.BCPopJumpIfFalse, 0)
		if err := c.expr(args[1], tail); err != nil {
			return err
		}
		jEnd := c.emit(pylang.BCJump, 0)
		c.patch(jElse, c.here())
		if len(args) == 3 {
			if err := c.expr(args[2], tail); err != nil {
				return err
			}
		} else {
			c.emit(pylang.BCLoadConst, c.constIdx(heap.Nil))
		}
		c.patch(jEnd, c.here())
		return nil

	case "begin":
		if len(args) == 0 {
			c.emit(pylang.BCLoadConst, c.constIdx(heap.Nil))
			return nil
		}
		for i, a := range args {
			if err := c.expr(a, tail && i == len(args)-1); err != nil {
				return err
			}
			if i != len(args)-1 {
				c.emit(pylang.BCPop, 0)
			}
		}
		return nil

	case "let":
		if len(args) < 2 || !args[0].IsList() {
			return fmt.Errorf("sklang: bad let %s", e)
		}
		binds := args[0].List
		// Evaluate all inits in the outer scope, then bind.
		for _, b := range binds {
			if !b.IsList() || len(b.List) != 2 {
				return fmt.Errorf("sklang: bad let binding %s", b)
			}
			if err := c.expr(b.List[1], false); err != nil {
				return err
			}
		}
		c.env = append(c.env, map[string]int{})
		idxs := make([]int, len(binds))
		for i, b := range binds {
			idxs[i] = c.bind(b.List[0].Atom)
		}
		for i := len(binds) - 1; i >= 0; i-- {
			c.emit(pylang.BCStoreLocal, int32(idxs[i]))
		}
		body := args[1:]
		for i, b := range body {
			if err := c.expr(b, tail && i == len(body)-1); err != nil {
				return err
			}
			if i != len(body)-1 {
				c.emit(pylang.BCPop, 0)
			}
		}
		c.env = c.env[:len(c.env)-1]
		return nil

	case "set!":
		if len(args) != 2 {
			return fmt.Errorf("sklang: bad set! %s", e)
		}
		if err := c.expr(args[1], false); err != nil {
			return err
		}
		if idx, ok := c.lookup(args[0].Atom); ok {
			c.emit(pylang.BCStoreLocal, int32(idx))
		} else {
			c.emit(pylang.BCStoreGlobal, c.nameIdx(args[0].Atom))
		}
		c.emit(pylang.BCLoadConst, c.constIdx(heap.Nil))
		return nil

	case "+", "-", "*":
		if len(args) == 0 {
			return fmt.Errorf("sklang: %s needs arguments", head)
		}
		kind := pylang.BinAdd
		switch head {
		case "-":
			kind = pylang.BinSub
		case "*":
			kind = pylang.BinMul
		}
		if head == "-" && len(args) == 1 {
			if err := c.expr(args[0], false); err != nil {
				return err
			}
			c.emit(pylang.BCUnaryNeg, 0)
			return nil
		}
		if err := c.expr(args[0], false); err != nil {
			return err
		}
		for _, a := range args[1:] {
			if err := c.expr(a, false); err != nil {
				return err
			}
			c.emit(pylang.BCBinary, int32(kind))
		}
		return nil

	case "not":
		if err := c.expr(args[0], false); err != nil {
			return err
		}
		c.emit(pylang.BCUnaryNot, 0)
		return nil

	case "vector":
		for _, a := range args {
			if err := c.expr(a, false); err != nil {
				return err
			}
		}
		c.emit(pylang.BCBuildList, int32(len(args)))
		return nil

	case "vector-ref":
		if err := c.binArgs(args, 2, e); err != nil {
			return err
		}
		c.emit(pylang.BCIndex, 0)
		return nil

	case "vector-set!":
		if len(args) != 3 {
			return fmt.Errorf("sklang: bad vector-set! %s", e)
		}
		for _, a := range args {
			if err := c.expr(a, false); err != nil {
				return err
			}
		}
		c.emit(pylang.BCStoreIndex, 0)
		c.emit(pylang.BCLoadConst, c.constIdx(heap.Nil))
		return nil

	case "vector-length", "string-length":
		if err := c.expr(args[0], false); err != nil {
			return err
		}
		c.emit(pylang.BCLen, 0)
		return nil
	}

	if kind, ok := binOps[head]; ok {
		if err := c.binArgs(args, 2, e); err != nil {
			return err
		}
		c.emit(pylang.BCBinary, int32(kind))
		return nil
	}
	if kind, ok := cmpOps[head]; ok {
		if err := c.binArgs(args, 2, e); err != nil {
			return err
		}
		c.emit(pylang.BCCompare, int32(kind))
		return nil
	}

	// Renamed builtins.
	callee := head
	switch head {
	case "display":
		callee = "print"
	case "truncate":
		callee = "int"
	}

	// Tail self call becomes a jump to the function entry (the
	// jit_merge_point).
	if tail && head == c.name && len(args) == len(c.params) {
		for _, a := range args {
			if err := c.expr(a, false); err != nil {
				return err
			}
		}
		for i := len(args) - 1; i >= 0; i-- {
			c.emit(pylang.BCStoreLocal, int32(i))
		}
		c.emit(pylang.BCJump, 0)
		c.hasTailSelf = true
		// Balance the expression stack for the dead fall-through path.
		c.emit(pylang.BCLoadConst, c.constIdx(heap.Nil))
		return nil
	}

	// Ordinary call.
	if idx, ok := c.lookup(callee); ok {
		c.emit(pylang.BCLoadLocal, int32(idx))
	} else {
		c.emit(pylang.BCLoadGlobal, c.nameIdx(callee))
	}
	for _, a := range args {
		if err := c.expr(a, false); err != nil {
			return err
		}
	}
	c.emit(pylang.BCCall, int32(len(args)))
	return nil
}

func (c *fnCompiler) binArgs(args []*SExpr, n int, e *SExpr) error {
	if len(args) != n {
		return fmt.Errorf("sklang: wrong arity in %s", e)
	}
	for _, a := range args {
		if err := c.expr(a, false); err != nil {
			return err
		}
	}
	return nil
}

// registerSchemeBuiltins installs Scheme-specific native procedures.
func registerSchemeBuiltins(vm *pylang.VM) {
	vm.DefineGlobalBuiltin("make-vector", func(vm *pylang.VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
		if len(args) < 1 || len(args) > 2 {
			panic("sklang: make-vector takes 1-2 arguments")
		}
		n := int(args[0].V.I)
		init := mtjit.Concrete(heap.IntVal(0))
		if len(args) == 2 {
			init = args[1]
		}
		v := m.NewArray(vm.ListShape, 0, n)
		for i := 0; i < n; i++ {
			m.SetElem(v, m.Const(heap.IntVal(int64(i))), init)
		}
		return v
	})
}
