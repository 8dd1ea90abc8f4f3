// Package heap implements the simulated guest heap shared by all VM
// configurations: bump-pointer allocation into a nursery, a generational
// copying collector with minor and major collections, a write barrier with
// a remembered set, and simulated addresses that feed the CPU cache model.
//
// The collector corresponds to RPython's incminimark generational GC as
// characterized in the paper (GC phase of Figures 2-4, Table IV). Guest
// objects are real Go values — liveness, promotion, and remembered-set
// behavior are actually computed, not sampled — while the *cost* of
// collection is emitted into the machine's instruction stream proportional
// to the work done (roots scanned, bytes copied, objects marked).
package heap

import (
	"fmt"
	"math"
)

// Kind discriminates Value representations.
type Kind uint8

// Value kinds. Small integers, floats, bools and nil are unboxed (they live
// in tagged registers / stack slots of the VMs); everything else is a
// reference to a heap Obj.
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindFloat
	KindRef
)

// Value is the universal guest value representation used by every VM
// configuration and by JIT-compiled traces. A float keeps its IEEE 754
// bits in I, so a Value is three words and an mtjit.TV (a Value and its
// trace ref) four: small enough for the Go compiler to keep in
// registers rather than copy through memory on every handler call.
type Value struct {
	Kind Kind
	I    int64
	O    *Obj
}

// F returns a float value's number.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// Convenience constructors.
var (
	// Nil is the guest nil/None/null value.
	Nil = Value{Kind: KindNil}
	// True and False are the guest booleans.
	True  = Value{Kind: KindBool, I: 1}
	False = Value{Kind: KindBool, I: 0}
)

// IntVal returns an unboxed guest integer.
func IntVal(i int64) Value { return Value{Kind: KindInt, I: i} }

// FloatVal returns an unboxed guest float.
func FloatVal(f float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(f))} }

// BoolVal returns a guest boolean.
func BoolVal(b bool) Value {
	if b {
		return True
	}
	return False
}

// RefVal returns a reference to a heap object.
func RefVal(o *Obj) Value { return Value{Kind: KindRef, O: o} }

// IsNil reports whether v is the guest nil.
func (v Value) IsNil() bool { return v.Kind == KindNil }

// Truthy reports generic guest truthiness for unboxed kinds; reference
// truthiness is language-specific and handled by the object models.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindNil:
		return false
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.F() != 0
	default:
		return true
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F())
	case KindRef:
		if v.O == nil {
			return "ref<nil>"
		}
		return fmt.Sprintf("ref<%s@%#x>", v.O.Shape.Name, v.O.Addr())
	}
	return "value?"
}

// Eq reports shallow equality: unboxed values compare by representation,
// references by identity.
func (v Value) Eq(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNil:
		return true
	case KindBool, KindInt:
		return v.I == o.I
	case KindFloat:
		return v.F() == o.F()
	case KindRef:
		return v.O == o.O
	}
	return false
}
