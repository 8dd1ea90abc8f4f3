// Package aot implements the AOT-compiled runtime of the simulated
// meta-tracing VM: the functions that the paper's Table III shows being
// called from JIT-compiled meta-traces because they cannot be inlined into
// traces (they contain loops with data-dependent bounds). It covers the
// paper's source taxonomy:
//
//	R — RPython type-system intrinsics (ordered dict lookup, string join/hash)
//	L — RPython standard library (rbigint arithmetic, string_to_int, replace)
//	C — external C standard library (pow, memcpy)
//	I — interpreter-defined helpers (list-strategy operations, set operations)
//	M — VM modules (JSON string escaping)
//
// Every function both performs its real semantics on simulated heap objects
// and emits an instruction-stream cost proportional to the work done, so
// that attribution measurements (Table III) are driven by actual behavior.
package aot

import (
	"fmt"

	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// Source classifies where an AOT function is defined (Table III's Src
// column).
type Source byte

// Source taxonomy from the paper.
const (
	SrcIntrinsic Source = 'R' // RPython type-system intrinsics
	SrcStdlib    Source = 'L' // RPython standard library
	SrcC         Source = 'C' // external C stdlib
	SrcInterp    Source = 'I' // interpreter-defined
	SrcModule    Source = 'M' // VM module
)

// String returns the one-letter source code used in Table III.
func (s Source) String() string { return string(byte(s)) }

// Func identifies one AOT-compiled entry point.
type Func struct {
	ID      uint32
	Name    string
	Src     Source
	EntryPC uint64

	retSite isa.Site
}

// Runtime bundles the AOT function registry with the heap and instruction
// stream it operates on. One Runtime exists per VM instance.
type Runtime struct {
	H *heap.Heap
	S *cpu.Machine

	// Shapes the runtime must recognize; set by the guest language
	// during VM construction.
	StrShape  *heap.Shape
	BigShape  *heap.Shape
	DictShape *heap.Shape
	ListShape *heap.Shape

	// PC hands out this run's dynamic VM-text addresses (AOT entry
	// points, guest code objects, engine sites). Per-run so PC layout
	// does not depend on what other runs allocated first.
	PC *isa.PCAlloc

	funcs  []*Func
	byName map[string]*Func

	// scratch is where StrReplace and JSONEscape, whose result length is
	// known only at the end, build before NewStr copies it out. A
	// run-owned buffer under DESIGN.md "Host memory discipline": valid
	// until the call that filled it returns, never retained.
	scratch []byte
}

// NewRuntime returns a Runtime over h.
func NewRuntime(h *heap.Heap) *Runtime {
	return &Runtime{
		H:      h,
		S:      h.Stream(),
		PC:     isa.NewRunAlloc(),
		byName: make(map[string]*Func),
	}
}

// Register defines an AOT entry point. Registering an existing name returns
// the existing Func.
func (rt *Runtime) Register(name string, src Source) *Func {
	if f, ok := rt.byName[name]; ok {
		return f
	}
	f := &Func{
		ID:      uint32(len(rt.funcs) + 1),
		Name:    name,
		Src:     src,
		EntryPC: rt.PC.Take(256),
		retSite: rt.PC.Site(),
	}
	rt.funcs = append(rt.funcs, f)
	rt.byName[name] = f
	return f
}

// Lookup returns the Func registered under name, or nil.
func (rt *Runtime) Lookup(name string) *Func { return rt.byName[name] }

// ByID returns the Func with the given ID, or nil.
func (rt *Runtime) ByID(id uint32) *Func {
	if id == 0 || int(id) > len(rt.funcs) {
		return nil
	}
	return rt.funcs[id-1]
}

// Funcs returns all registered functions in registration order.
func (rt *Runtime) Funcs() []*Func { return append([]*Func(nil), rt.funcs...) }

// prologueBlocks caches the fixed arg-setup + spill mix per arity; guest
// call sites rarely exceed a handful of arguments.
var prologueBlocks = func() []*isa.Block {
	bs := make([]*isa.Block, 9)
	for n := range bs {
		bs[n] = isa.NewBlock(isa.CC(isa.ALU, 3+n), isa.CC(isa.Store, 2))
	}
	return bs
}()

var epilogueBlock = isa.NewBlock(isa.CC(isa.Load, 2), isa.CC(isa.ALU, 1))

// CallPrologue emits the call overhead into f: argument marshaling,
// register saves, and the call instruction. The paper measures ~15
// instructions of overhead per AOT call from JIT code (Figure 9's call
// nodes).
func (rt *Runtime) CallPrologue(f *Func, nargs int) {
	if nargs >= 0 && nargs < len(prologueBlocks) {
		rt.S.Block(prologueBlocks[nargs])
	} else {
		rt.S.Ops(isa.ALU, 3+nargs) // arg setup
		rt.S.Ops(isa.Store, 2)     // spill caller-saved values
	}
	rt.S.CallDirect(f.EntryPC)
}

// CallEpilogue emits the return overhead.
func (rt *Runtime) CallEpilogue(f *Func) {
	rt.S.Block(epilogueBlock) // restore spills + stack adjust
	rt.S.Return()
}

// ---- guest string helpers ----

// NewStrN allocates a guest string of n zero bytes for the caller to fill
// in place before it hands the object on: header and payload are one host
// allocation (heap.AllocBytes), so a string built this way costs the host
// exactly what it costs the guest.
func (rt *Runtime) NewStrN(n int) *heap.Obj {
	if rt.StrShape == nil {
		panic("aot: StrShape not configured")
	}
	return rt.H.AllocBytes(rt.StrShape, n)
}

// NewStr allocates a guest string holding a copy of b; the caller keeps b.
func (rt *Runtime) NewStr(b []byte) *heap.Obj {
	o := rt.NewStrN(len(b))
	copy(o.Bytes, b)
	return o
}

// StrBytes returns the payload of a guest string.
func StrBytes(o *heap.Obj) []byte { return o.Bytes }

// IsStr reports whether o is a guest string of this runtime.
func (rt *Runtime) IsStr(o *heap.Obj) bool { return o != nil && o.Shape == rt.StrShape }

// requireStr panics with a clear message when a string op receives a
// non-string (a VM bug, not a guest error).
func (rt *Runtime) requireStr(o *heap.Obj, op string) {
	if !rt.IsStr(o) {
		panic(fmt.Sprintf("aot: %s on non-string %v", op, o))
	}
}
