package pylang

import (
	"bytes"
	"fmt"
	"sort"

	"metajit/internal/aot"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
)

// sortedKeys returns m's keys in sorted order, for deterministic
// iteration over map-backed root sets.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// orderedKeys returns m's keys in sorted order out of *cache, sorting again
// only when the key set changed: Roots runs on every minor collection, and
// the maps it walks settle once the module body has run. Nothing in this
// package deletes from the maps this is used on (globals, interned,
// builtins, a class's Methods), so the set changed exactly when its size did.
func orderedKeys[V any](cache *[]string, m map[string]V) []string {
	if len(*cache) != len(m) {
		*cache = sortedKeys(m)
	}
	return *cache
}

// Function is a guest function: a compiled code object. It lives in the
// Native slot of a FuncShape heap object.
type Function struct {
	Name string
	Code *Code
}

// Builtin is a native function exposed to guest code.
type Builtin struct {
	Name string
	// Fn runs under the current machine so builtin work records into
	// traces and emits interpreter cost like everything else.
	Fn func(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV
}

// Class is a guest class. Instances share a heap.Shape per class, so
// guard_class specializes attribute access the way PyPy's maps do.
type Class struct {
	Name     string
	Shape    *heap.Shape
	Base     *Class
	FieldIdx map[string]int
	Methods  map[string]*heap.Obj // name -> FuncShape object
	// obj is the class object itself.
	obj *heap.Obj
	// methodKeys is Methods' key order for Roots (orderedKeys).
	methodKeys []string
}

// fieldIndex resolves an attribute slot, consulting base classes.
func (c *Class) fieldIndex(name string) (int, bool) {
	if i, ok := c.FieldIdx[name]; ok {
		return i, true
	}
	return 0, false
}

// lookupMethod resolves a method through the MRO.
func (c *Class) lookupMethod(name string) (*heap.Obj, bool) {
	for k := c; k != nil; k = k.Base {
		if m, ok := k.Methods[name]; ok {
			return m, true
		}
	}
	return nil, false
}

// ensureField allocates an attribute slot on first store.
func (c *Class) ensureField(name string) int {
	if i, ok := c.FieldIdx[name]; ok {
		return i
	}
	i := len(c.FieldIdx)
	c.FieldIdx[name] = i
	return i
}

// VM is one Python-like virtual machine instance: heap, runtime, compiled
// codes, globals, and (optionally) a meta-tracing engine.
type VM struct {
	Mach *cpu.Machine
	H    *heap.Heap
	RT   *aot.Runtime
	Eng  *mtjit.Engine // nil when the VM is a plain interpreter

	// m is the VM's one machine. While tm is non-nil it records into
	// tm; while tierCode is non-nil it is resident in that tier.
	m  *mtjit.Machine
	tm *mtjit.Recorder
	// traceRoot is the frame-stack depth where the active recording
	// started.
	traceRoot int

	// Lower-tier residency: while tierCode is non-nil the dispatch loop
	// runs inside that compiled region for tierFrame, with the region's
	// tier residency hooked on m for cost accounting and guards.
	// resid[t] is nil unless tier t is on; each tier keeps its own (see
	// mtjit.Residency).
	resid     [mtjit.NumTiers]*mtjit.Residency
	tierCode  *mtjit.TierCode
	tierFrame *Frame

	frames []*Frame
	// framePool recycles popped guest frames with their Locals/Stack
	// backing arrays: one frame per guest call makes frames the
	// interpreter's dominant host allocation. Pooled frames are reset on
	// reuse; nothing retains popped frames (resume data copies values).
	framePool []*Frame
	// argScratch marshals BCCall arguments. A single buffer is safe:
	// builtins never re-enter guest code, so no nested BCCall can run
	// while pushCall still reads the scratch, and every consumer copies
	// the TVs before the next call instruction.
	argScratch []mtjit.TV
	// callBuf is the stack RunFunction and pushCallWith build argument
	// lists on.
	callBuf []mtjit.TV
	// th is the residual-call thunk table (thunks.go).
	th thunks

	globals map[string]heap.Value
	codes   []*Code
	codeSeq uint32
	// codeIndex finds a code object by ID: a trace exit names its
	// frames' code that way.
	codeIndex map[uint32]*Code

	// mutatedGlobals holds names stored to after module initialization.
	// Traced loads of such names cannot be constant-folded and become
	// residual dict lookups; all other globals get versioned-dict
	// constant promotion under guard_not_invalidated.
	mutatedGlobals map[string]bool
	// inModuleInit is true while the module body executes: definition-
	// time stores (def, class, top-level constants) do not count as
	// mutations.
	inModuleInit bool

	// Shapes.
	StrShape, BigShape, ListShape, TupleShape, DictShape *heap.Shape
	FuncShape, BuiltinShape, BoundShape, ClassShape      *heap.Shape

	classes        map[*heap.Shape]*Class
	pendingClasses map[string]*Class
	builtins       map[string]*heap.Obj
	builtinMethods map[methodKey]*heap.Obj // builtinMethod's lookup cache
	interned       map[string]*heap.Obj
	charTab        *heap.Obj
	// Roots' visit orders over the maps above, each rebuilt when its map
	// grew (orderedKeys).
	globalKeys, internedKeys, builtinKeys []string
	classOrder                            []*Class

	// AOT entry points used by the object model (Table III names).
	fnDictLookup, fnDictSet, fnStrEq, fnStrJoin, fnStrReplace   *aot.Func
	fnStrFindChar, fnStrFind, fnStrHash, fnInt2Dec, fnStrSplit  *aot.Func
	fnStr2Int, fnEncode, fnJSONEsc, fnTranslate, fnStrConcat    *aot.Func
	fnBigAdd, fnBigSub, fnBigMul, fnBigDivMod, fnBigLsh         *aot.Func
	fnBigRsh, fnBigStr                                          *aot.Func
	fnListSetSlice, fnListSlice, fnListFind                     *aot.Func
	fnSetDiff, fnSetSubset, fnDictNew, fnDictLen, fnDictDel     *aot.Func
	fnPow, fnSqrt, fnMemcpy, fnDictKeys, fnListSort, fnStrSlice *aot.Func

	// UnicodeStrings selects unicode* IR nodes for string operations in
	// traces (true for the Python guest, false for the Scheme guest).
	UnicodeStrings bool

	// Output collects guest print() output for result checking.
	Output bytes.Buffer

	// Profile names the interpreter cost profile in use.
	Profile *mtjit.CostProfile
}

// Config selects the VM flavor.
type Config struct {
	// Profile is the interpreter cost model (Reference = CPython analog,
	// Framework = RPython analog).
	Profile *mtjit.CostProfile
	// Engine, when non-nil, builds the meta-tracing engine with this
	// tier configuration (mtjit.NewEngineConfig normalizes it); nil runs
	// without a JIT. A lower tier is on exactly when its normalized
	// threshold is positive: the VM then keeps that tier's residency.
	Engine *mtjit.Config
	// Opts overrides optimizer passes when Engine is set.
	Opts *mtjit.OptConfig
	// HeapConfig overrides the GC geometry.
	HeapConfig *heap.Config
}

// New builds a VM over a fresh simulated machine.
func New(mach *cpu.Machine, cfg Config) *VM {
	if cfg.Profile == nil {
		cfg.Profile = mtjit.FrameworkProfile()
	}
	hcfg := heap.DefaultConfig()
	if cfg.HeapConfig != nil {
		hcfg = *cfg.HeapConfig
	}
	h := heap.New(mach, hcfg)
	rt := aot.NewRuntime(h)
	vm := &VM{
		Mach:           mach,
		H:              h,
		RT:             rt,
		globals:        map[string]heap.Value{},
		mutatedGlobals: map[string]bool{},
		codeIndex:      map[uint32]*Code{},
		classes:        map[*heap.Shape]*Class{},
		builtins:       map[string]*heap.Obj{},
		builtinMethods: map[methodKey]*heap.Obj{},
		interned:       map[string]*heap.Obj{},
		Profile:        cfg.Profile,

		UnicodeStrings: true,
	}
	vm.StrShape = h.NewShape("W_Str", 0)
	vm.BigShape = h.NewShape("W_Long", 0)
	vm.ListShape = h.NewShape("W_List", 0)
	vm.TupleShape = h.NewShape("W_Tuple", 0)
	vm.DictShape = h.NewShape("W_Dict", 0)
	vm.FuncShape = h.NewShape("W_Function", 0)
	vm.BuiltinShape = h.NewShape("W_Builtin", 0)
	vm.BoundShape = h.NewShape("W_BoundMethod", 2)
	vm.ClassShape = h.NewShape("W_Class", 0)
	rt.StrShape = vm.StrShape
	rt.BigShape = vm.BigShape
	rt.DictShape = vm.DictShape
	rt.ListShape = vm.ListShape

	vm.m = mtjit.NewMachine(rt, cfg.Profile)
	if cfg.Engine != nil {
		vm.Eng = mtjit.NewEngineConfig(rt, cfg.Profile, *cfg.Engine)
		if cfg.Opts != nil {
			vm.Eng.Opts = *cfg.Opts
		}
		if vm.Eng.BaselineThreshold > 0 {
			vm.resid[mtjit.BaselineTier] = mtjit.NewResidency(vm.Eng, mtjit.BaselineTier)
		}
		if vm.Eng.MethodThreshold > 0 {
			vm.resid[mtjit.MethodTier] = mtjit.NewResidency(vm.Eng, mtjit.MethodTier)
		}
	}

	h.AddRoots(vm)
	vm.registerAOT()
	vm.bindThunks()
	vm.setupBuiltins()
	vm.buildCharTable()
	return vm
}

// Roots implements heap.RootProvider: frames, globals, interned strings,
// code constants, and builtins are roots.
func (vm *VM) Roots(visit func(*heap.Obj)) {
	for _, f := range vm.frames {
		for i := range f.Locals {
			if v := f.Locals[i].V; v.Kind == heap.KindRef && v.O != nil {
				visit(v.O)
			}
		}
		for i := 0; i < len(f.Stack); i++ {
			if v := f.Stack[i].V; v.Kind == heap.KindRef && v.O != nil {
				visit(v.O)
			}
		}
	}
	// Map-backed root sets are visited in sorted key order: the GC
	// promotes survivors in visit order, so root order decides simulated
	// addresses, and address layout must be a deterministic function of
	// the run for results to be reproducible (and for parallel cells to
	// match sequential ones byte for byte).
	for _, k := range orderedKeys(&vm.globalKeys, vm.globals) {
		if v := vm.globals[k]; v.Kind == heap.KindRef && v.O != nil {
			visit(v.O)
		}
	}
	for _, k := range orderedKeys(&vm.internedKeys, vm.interned) {
		visit(vm.interned[k])
	}
	for _, k := range orderedKeys(&vm.builtinKeys, vm.builtins) {
		visit(vm.builtins[k])
	}
	for _, code := range vm.codes {
		for _, v := range code.Consts {
			if v.Kind == heap.KindRef && v.O != nil {
				visit(v.O)
			}
		}
	}
	if len(vm.classOrder) != len(vm.classes) { // classes are never deleted either
		vm.classOrder = vm.classOrder[:0]
		for _, c := range vm.classes {
			vm.classOrder = append(vm.classOrder, c)
		}
		sort.Slice(vm.classOrder, func(i, j int) bool { return vm.classOrder[i].Shape.ID < vm.classOrder[j].Shape.ID })
	}
	for _, c := range vm.classOrder {
		for _, k := range orderedKeys(&c.methodKeys, c.Methods) {
			visit(c.Methods[k])
		}
		if c.obj != nil {
			visit(c.obj)
		}
	}
	if vm.charTab != nil {
		visit(vm.charTab)
	}
}

func (vm *VM) registerAOT() {
	rt := vm.RT
	vm.fnDictLookup = rt.Register("rordereddict.ll_call_lookup_function", aot.SrcIntrinsic)
	vm.fnDictSet = rt.Register("rordereddict.ll_dict_setitem", aot.SrcIntrinsic)
	vm.fnDictKeys = rt.Register("rordereddict.ll_dict_keys", aot.SrcIntrinsic)
	vm.fnDictNew = rt.Register("rordereddict.ll_newdict", aot.SrcIntrinsic)
	vm.fnDictLen = rt.Register("rordereddict.ll_dict_len", aot.SrcIntrinsic)
	vm.fnDictDel = rt.Register("rordereddict.ll_dict_delitem", aot.SrcIntrinsic)
	vm.fnStrSlice = rt.Register("rstr.ll_stringslice", aot.SrcIntrinsic)
	vm.fnStrEq = rt.Register("rstr.ll_streq", aot.SrcIntrinsic)
	vm.fnStrJoin = rt.Register("rstr.ll_join", aot.SrcIntrinsic)
	vm.fnStrHash = rt.Register("rstr.ll_strhash", aot.SrcIntrinsic)
	vm.fnStrConcat = rt.Register("rstr.ll_strconcat", aot.SrcIntrinsic)
	vm.fnStrFindChar = rt.Register("rstr.ll_find_char", aot.SrcIntrinsic)
	vm.fnStrFind = rt.Register("rstr.ll_find", aot.SrcIntrinsic)
	vm.fnStrReplace = rt.Register("rstring.replace", aot.SrcStdlib)
	vm.fnStrSplit = rt.Register("rstring.split", aot.SrcStdlib)
	vm.fnInt2Dec = rt.Register("rstr.ll_int2dec", aot.SrcIntrinsic)
	vm.fnStr2Int = rt.Register("arithmetic.string_to_int", aot.SrcStdlib)
	vm.fnEncode = rt.Register("runicode.unicode_encode_ucs1_helper", aot.SrcStdlib)
	vm.fnJSONEsc = rt.Register("_pypyjson.raw_encode_basestring_ascii", aot.SrcModule)
	vm.fnTranslate = rt.Register("W_UnicodeObject_descr_translate", aot.SrcInterp)
	vm.fnBigAdd = rt.Register("rbigint.add", aot.SrcStdlib)
	vm.fnBigSub = rt.Register("rbigint.sub", aot.SrcStdlib)
	vm.fnBigMul = rt.Register("rbigint.mul", aot.SrcStdlib)
	vm.fnBigDivMod = rt.Register("rbigint.divmod", aot.SrcStdlib)
	vm.fnBigLsh = rt.Register("rbigint.lshift", aot.SrcStdlib)
	vm.fnBigRsh = rt.Register("rbigint.rshift", aot.SrcStdlib)
	vm.fnBigStr = rt.Register("rbigint.str", aot.SrcStdlib)
	vm.fnListSetSlice = rt.Register("IntegerListStrategy_setslice", aot.SrcInterp)
	vm.fnListSlice = rt.Register("IntegerListStrategy_fill_in_with_sliced", aot.SrcInterp)
	vm.fnListFind = rt.Register("IntegerListStrategy_safe_find", aot.SrcInterp)
	vm.fnListSort = rt.Register("listsort.sort", aot.SrcInterp)
	vm.fnSetDiff = rt.Register("BytesSetStrategy_difference_unwrapped", aot.SrcInterp)
	vm.fnSetSubset = rt.Register("BytesSetStrategy_issubset_unwrapped", aot.SrcInterp)
	vm.fnPow = rt.Register("pow", aot.SrcC)
	vm.fnSqrt = rt.Register("sqrt", aot.SrcC)
	vm.fnMemcpy = rt.Register("memcpy", aot.SrcC)
}

// Intern returns the canonical string object for s.
func (vm *VM) Intern(s string) *heap.Obj {
	if o, ok := vm.interned[s]; ok {
		return o
	}
	o := vm.RT.NewStrN(len(s))
	copy(o.Bytes, s)
	vm.interned[s] = o
	return o
}

// NewStr allocates a non-interned guest string.
func (vm *VM) NewStr(b []byte) *heap.Obj { return vm.RT.NewStr(b) }

func (vm *VM) buildCharTable() {
	vm.charTab = vm.H.AllocElems(vm.ListShape, 0, 256)
	for i := 0; i < 256; i++ {
		vm.charTab.Elems[i] = heap.RefVal(vm.Intern(string([]byte{byte(i)})))
	}
}

// makeClass builds a Class and its instance shape at compile time.
func (vm *VM) makeClass(cd *ClassDef) (*heap.Obj, error) {
	var base *Class
	if cd.Base == "object" {
		cd = &ClassDef{Name: cd.Name, Methods: cd.Methods}
	}
	if cd.Base != "" {
		bv, ok := vm.globals[cd.Base]
		if !ok || bv.Kind != heap.KindRef || bv.O.Shape != vm.ClassShape {
			// Base may be compiled but not yet stored to globals;
			// consult the pending class table.
			b, ok2 := vm.pendingClasses[cd.Base]
			if !ok2 {
				return nil, fmt.Errorf("pylang: unknown base class %q", cd.Base)
			}
			base = b
		} else {
			base = bv.O.Native.(*Class)
		}
	}
	cls := &Class{
		Name:     cd.Name,
		Base:     base,
		FieldIdx: map[string]int{},
		Methods:  map[string]*heap.Obj{},
	}
	if base != nil {
		for k, v := range base.FieldIdx {
			cls.FieldIdx[k] = v
		}
	}
	cls.Shape = vm.H.NewShape(cd.Name, 0)
	for _, m := range cd.Methods {
		fo, err := vm.compileFunction(m)
		if err != nil {
			return nil, err
		}
		cls.Methods[m.Name] = fo
	}
	obj := vm.H.AllocObj(vm.ClassShape, 0)
	obj.Native = cls
	cls.obj = obj
	vm.classes[cls.Shape] = cls
	if vm.pendingClasses == nil {
		vm.pendingClasses = map[string]*Class{}
	}
	vm.pendingClasses[cd.Name] = cls
	return obj, nil
}

// NewCodeForFrontend allocates and registers a code object for an
// embedding front end (e.g. the Scheme guest), which fills Instrs, Consts,
// Names, NumLocals, and Headers itself.
func (vm *VM) NewCodeForFrontend(name string, numParams int) *Code {
	vm.codeSeq++
	c := &Code{
		ID:        vm.codeSeq,
		Name:      name,
		NumParams: numParams,
		PCBase:    vm.RT.PC.Take(1 << 14),
	}
	vm.codes = append(vm.codes, c)
	vm.codeIndex[c.ID] = c
	return c
}

// DefineFunctionGlobal wraps code in a function object bound to a global
// name.
func (vm *VM) DefineFunctionGlobal(name string, code *Code) {
	fo := vm.H.AllocObj(vm.FuncShape, 0)
	fo.Native = &Function{Name: name, Code: code}
	vm.globals[name] = heap.RefVal(fo)
}

// DefineGlobalBuiltin binds a native function to a global name.
func (vm *VM) DefineGlobalBuiltin(name string, fn func(*VM, *mtjit.Machine, []mtjit.TV) mtjit.TV) {
	vm.builtins[name] = vm.newBuiltin(name, fn)
}

// SetGlobal stores a module-global value.
func (vm *VM) SetGlobal(name string, v heap.Value) { vm.globals[name] = v }

// GetGlobal reads a module-global value.
func (vm *VM) GetGlobal(name string) (heap.Value, bool) {
	v, ok := vm.globals[name]
	return v, ok
}

// compileFunction compiles a FuncDef into a function object.
func (vm *VM) compileFunction(fd *FuncDef) (*heap.Obj, error) {
	c := vm.newCompiler(fd.Name, false)
	c.declareLocals(fd.Params, fd.Body)
	c.code.NumParams = len(fd.Params)
	for _, s := range fd.Body {
		if err := c.stmt(s); err != nil {
			return nil, err
		}
	}
	c.emit(BCLoadConst, c.constIdx(heap.Nil))
	c.emit(BCReturn, 0)
	code := c.finish()
	vm.codeIndex[code.ID] = code
	fo := vm.H.AllocObj(vm.FuncShape, 0)
	fo.Native = &Function{Name: fd.Name, Code: code}
	return fo, nil
}
