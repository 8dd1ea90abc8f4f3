// Package isa defines the synthetic instruction-set architecture that every
// layer of the simulated VM stack emits and the CPU model in internal/cpu
// retires: instruction classes, precomputed blocks, and the simulated
// address space. There is no sink interface here — emitters hold the
// concrete *cpu.Machine.
//
// The paper measures real x86 executions with Pin and performance counters.
// This reproduction has no hardware access, so instead each component — the
// reference interpreter, the framework interpreter, the meta-interpreter,
// AOT-compiled runtime functions, the garbage collector, and JIT-compiled
// traces — emits a stream of synthetic instructions as it executes. The
// stream preserves what the microarchitecture model needs: instruction
// class mix, branch program counters and outcomes (for branch prediction),
// memory addresses (for the cache model), and tagged nop instructions
// carrying cross-layer annotations.
package isa

// Class is a synthetic instruction class. The CPU model assigns issue cost
// and hazards per class.
type Class uint8

// Instruction classes.
const (
	ALU          Class = iota // integer ALU op (add, sub, cmp, logic, lea)
	Mul                       // integer multiply
	Div                       // integer divide (long latency)
	FPU                       // floating-point add/sub/cmp/convert
	FMul                      // floating-point multiply
	FDiv                      // floating-point divide / sqrt (long latency)
	Load                      // memory load
	Store                     // memory store
	Branch                    // conditional direct branch
	Jump                      // unconditional direct jump
	IndirectJump              // indirect jump (interpreter dispatch)
	Call                      // direct call
	IndirectCall              // indirect call
	Ret                       // return
	Nop                       // annotation carrier
	NumClasses
)

var classNames = [NumClasses]string{
	"alu", "mul", "div", "fpu", "fmul", "fdiv", "load", "store",
	"branch", "jump", "ijump", "call", "icall", "ret", "nop",
}

// String returns the class mnemonic.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// IsBranch reports whether the class goes through branch prediction.
func (c Class) IsBranch() bool {
	switch c {
	case Branch, Jump, IndirectJump, Call, IndirectCall, Ret:
		return true
	}
	return false
}

// ClassCount is one (class, count) component of a Block.
type ClassCount struct {
	Class Class
	N     uint32
}

// CC builds a ClassCount; it exists so Block construction sites stay
// one-line: isa.NewBlock(isa.CC(isa.ALU, 3), isa.CC(isa.Store, 2)).
func CC(c Class, n int) ClassCount { return ClassCount{Class: c, N: uint32(n)} }

// Block is a precomputed mix of straight-line instructions retired
// through one cpu.Machine.Block call instead of one Ops call per class. Hot
// emitters (dispatch loops, guest-call overhead, trace-exit stubs) build
// their fixed mixes once and retire them with a single dynamic call —
// the host-side analogue of threaded code replacing switch dispatch.
//
// Blocks carry no predicted-branch classes and no addresses: loads and
// stores in a block are class-accounted only, exactly like Ops(Load, n),
// and unconditional direct jumps are allowed because they carry no
// predictor state. Zero counts are dropped at construction.
type Block struct {
	Mix   []ClassCount
	Total uint64
}

// NewBlock builds a Block from its components, panicking on classes that
// need per-instruction outcomes or predictor/RAS state (those must go
// through the machine's dedicated retire methods).
func NewBlock(mix ...ClassCount) *Block {
	b := &Block{}
	for _, cc := range mix {
		if cc.Class.IsBranch() && cc.Class != Jump {
			panic("isa: predicted class " + cc.Class.String() + " in Block")
		}
		if cc.N == 0 {
			continue
		}
		b.Mix = append(b.Mix, cc)
		b.Total += uint64(cc.N)
	}
	return b
}
