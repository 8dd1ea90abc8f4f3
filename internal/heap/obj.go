package heap

// Shape describes the layout/class of a heap object: the analog of an
// RPython vtable. JIT guard_class instructions compare an object's shape
// pointer against a constant; the shape's VTableAddr is the simulated
// address loaded by that comparison.
type Shape struct {
	Name       string
	ID         uint32
	VTableAddr uint64
	// NumFields is the fixed-field count objects of this shape start
	// with.
	NumFields int
}

// Obj is a guest heap object. All guest languages and the JIT operate on
// this single representation: fixed Fields (attribute slots, closure
// cells), an Elems array part (list/vector/tuple storage), a Bytes payload
// (strings), and a Native escape hatch for runtime-internal payloads
// (bigint digit arrays, dictionary tables) that are manipulated only by
// AOT-compiled runtime functions.
//
// On the host an object is one allocation wherever the payload is small:
// AllocObj, AllocBytes and AllocElems put up to eight fields, 128 bytes or
// eight array elements right behind the header (valueTail, byteTail in
// heap.go), so Fields, Bytes or Elems then point into the object's own
// allocation, and a part that has been outgrown stays there, zeroed, until
// the object dies.
type Obj struct {
	Shape  *Shape
	Fields []Value
	Elems  []Value
	Bytes  []byte
	Native any

	// HashCache holds a runtime-computed content hash (string hash in
	// PyPy is cached in the object); HasHash marks it valid.
	HashCache uint64
	HasHash   bool

	addr      uint64
	elemsAddr uint64
	uid       uint64
	size      uint64
	gen       uint8 // 0 = nursery, 1 = old
	live      bool
	mark      uint32 // epoch of last GC that reached this object
	inRemset  bool
	// oldAt is the number of major collections run when the object was
	// promoted or last survived one: it is counted in the old generation
	// while this equals the heap's count.
	oldAt uint32
}

// Addr returns the object's current simulated address (it changes when the
// collector moves the object).
func (o *Obj) Addr() uint64 { return o.addr }

// UID returns a stable per-object identity (used for identity hashing; it
// survives GC moves, like RPython's preserved identity hashes).
func (o *Obj) UID() uint64 { return o.uid }

// Size returns the object's accounted size in simulated bytes.
func (o *Obj) Size() uint64 { return o.size }

// Old reports whether the object has been promoted out of the nursery.
func (o *Obj) Old() bool { return o.gen == 1 }

// Live reports whether the object was reachable at the last collection
// that examined it. A collection examines an object one by one only under
// Config.Debug or an attached Tracer (heap.go); otherwise the flag stays
// set and a dead object simply becomes garbage on the host. Dead-object
// access is a VM bug; the heap's debug mode panics on it.
func (o *Obj) Live() bool { return o.live }

// FieldAddr returns the simulated address of field i.
func (o *Obj) FieldAddr(i int) uint64 { return o.addr + 16 + uint64(i)*8 }

// ElemAddr returns the simulated address of array element i.
func (o *Obj) ElemAddr(i int) uint64 { return o.elemsAddr + uint64(i)*8 }

// ByteAddr returns the simulated address of byte i of the Bytes payload.
func (o *Obj) ByteAddr(i int) uint64 { return o.addr + 16 + uint64(i) }

func (o *Obj) recomputeSize() {
	o.size = 16 + 8*uint64(cap(o.Fields)) + uint64(len(o.Bytes))
	if o.Elems != nil {
		o.size += 16 + 8*uint64(cap(o.Elems))
	}
}
