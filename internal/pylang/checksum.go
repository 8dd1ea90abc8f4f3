package pylang

import (
	"math"

	"metajit/internal/aot"
	"metajit/internal/heap"
)

// HeapChecksum returns a structural hash of the VM's guest-visible final
// state: every global binding, in sorted name order, hashed by value
// structure. Object identity is canonicalized by first-visit order — not
// by allocation order — so configurations that allocate different
// numbers of objects (the JIT with allocation removal materializes fewer
// than the interpreter) hash equal when they computed the same
// structures. The differential oracle compares this across VM
// configurations; guest print output is compared separately via Output.
func (vm *VM) HeapChecksum() uint64 {
	c := &checksummer{ids: map[*heap.Obj]uint64{}, h: fnvOffset}
	for _, name := range sortedKeys(vm.globals) {
		c.str(name)
		c.value(vm.globals[name])
	}
	return c.h
}

// ValueChecksum hashes a single value with the same structural scheme
// as HeapChecksum; the differential oracle uses it to compare main's
// return value when that value is a heap reference.
func (vm *VM) ValueChecksum(v heap.Value) uint64 {
	c := &checksummer{ids: map[*heap.Obj]uint64{}, h: fnvOffset}
	c.value(v)
	return c.h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type checksummer struct {
	ids  map[*heap.Obj]uint64
	next uint64
	h    uint64
}

func (c *checksummer) mix(x uint64) {
	for i := 0; i < 8; i++ {
		c.h ^= x & 0xff
		c.h *= fnvPrime
		x >>= 8
	}
}

func (c *checksummer) str(s string) {
	c.mix(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		c.h ^= uint64(s[i])
		c.h *= fnvPrime
	}
}

func (c *checksummer) value(v heap.Value) {
	c.mix(uint64(v.Kind))
	switch v.Kind {
	case heap.KindBool, heap.KindInt:
		c.mix(uint64(v.I))
	case heap.KindFloat:
		c.mix(math.Float64bits(v.F()))
	case heap.KindRef:
		c.obj(v.O)
	}
}

func (c *checksummer) obj(o *heap.Obj) {
	if o == nil {
		c.mix(0)
		return
	}
	if id, ok := c.ids[o]; ok {
		c.mix(id)
		return
	}
	c.next++
	c.ids[o] = c.next
	c.mix(c.next)
	if o.Shape != nil {
		c.str(o.Shape.Name)
	}
	// Attribute storage grows on demand (loadAttr), so runs that touch
	// different attribute subsets leave different trailing-Nil padding;
	// trim it so padding never affects the hash.
	fields := o.Fields
	for len(fields) > 0 && fields[len(fields)-1].Kind == heap.KindNil {
		fields = fields[:len(fields)-1]
	}
	c.mix(uint64(len(fields)))
	for _, f := range fields {
		c.value(f)
	}
	c.mix(uint64(len(o.Elems)))
	for _, e := range o.Elems {
		c.value(e)
	}
	c.mix(uint64(len(o.Bytes)))
	for _, b := range o.Bytes {
		c.h ^= uint64(b)
		c.h *= fnvPrime
	}
	switch n := o.Native.(type) {
	case nil:
	case *aot.Dict:
		c.mix(uint64(n.Len()))
		n.Items(func(k, v heap.Value) {
			c.value(k)
			c.value(v)
		})
	case *aot.Big:
		if n.Neg {
			c.mix(1)
		} else {
			c.mix(2)
		}
		c.mix(uint64(len(n.Digits)))
		for _, d := range n.Digits {
			c.mix(uint64(d))
		}
	case *Function:
		c.str("func:" + n.Name)
	case *Builtin:
		c.str("builtin:" + n.Name)
	case *Class:
		c.str("class:" + n.Name)
	default:
		c.str("native:opaque")
	}
}
