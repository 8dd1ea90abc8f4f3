package heap

import (
	"fmt"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/isa"
)

// Config sets the collector's geometry.
type Config struct {
	// NurserySize is the allocation budget in simulated bytes between
	// minor collections.
	NurserySize uint64
	// MajorThreshold is the old-generation size in simulated bytes that
	// triggers the first major collection; after each major collection
	// the threshold becomes MajorGrowth × live bytes.
	MajorThreshold uint64
	// MajorGrowth is the heap-growth factor (RPython default is 1.82).
	MajorGrowth float64
	// Debug enables dead-object access checking (slower).
	Debug bool
}

// DefaultConfig returns the configuration used in experiments.
func DefaultConfig() Config {
	return Config{
		NurserySize:    512 << 10,
		MajorThreshold: 12 << 20,
		MajorGrowth:    1.82,
	}
}

// RootProvider enumerates GC roots (VM frame stacks, trace registers,
// interned constants). Providers are registered by VMs before execution.
type RootProvider interface {
	Roots(visit func(*Obj))
}

// RootFunc adapts a function to RootProvider.
type RootFunc func(visit func(*Obj))

// Roots implements RootProvider.
func (f RootFunc) Roots(visit func(*Obj)) { f(visit) }

// NativeScanner is implemented by Native payloads (dict tables, etc.) that
// hold references the collector must trace.
type NativeScanner interface {
	ScanRefs(visit func(*Obj))
}

// NativeSized is implemented by Native payloads that contribute to the
// object's accounted size.
type NativeSized interface {
	NativeSize() uint64
}

// AllocKind distinguishes the three allocation entry points for trace
// recording (internal/trace): plain objects, bytes payloads (strings),
// and objects with an array part.
type AllocKind uint8

// The allocation entry points, in AllocKind order.
const (
	AllocObjKind AllocKind = iota
	AllocBytesKind
	AllocElemsKind
)

// Tracer observes allocator and collector object events. A tracer is
// attached by the trace recorder; detached (the default) the hooks cost
// one nil pointer test per allocation and none per field access, so an
// untraced run is bit-identical to a pre-hook one.
type Tracer interface {
	// TraceAlloc fires after an object is allocated (address, UID, and
	// size assigned; a triggered minor collection already finished).
	TraceAlloc(o *Obj, kind AllocKind)
	// TraceFree fires when a collection finds an object dead. Objects
	// still live at VM exit never see TraceFree.
	TraceFree(o *Obj)
}

// SetTracer attaches (or, with nil, detaches) the allocation tracer.
func (h *Heap) SetTracer(t Tracer) { h.tracer = t }

// Stats accumulates collector statistics for EXPERIMENTS.md reporting.
type Stats struct {
	Minor          uint64
	Major          uint64
	AllocObjects   uint64
	AllocBytes     uint64
	PromotedBytes  uint64
	CollectedYoung uint64 // nursery objects that died young
	LiveAtMajor    uint64 // live bytes at last major collection
	Skipped        uint64 // collection requests dropped re-entrantly (TagGCSkipped)
}

// Heap is the simulated guest heap.
type Heap struct {
	cfg    Config
	stream *cpu.Machine

	nextAddr   uint64
	sinceMinor uint64
	oldBytes   uint64
	majorAt    uint64

	nursery []*Obj
	old     []*Obj
	remset  []*Obj
	roots   []RootProvider
	// markStack is the collector's work list, kept across collections so
	// marking does not regrow it from nothing every time.
	markStack []*Obj

	epoch   uint32
	nextUID uint64
	stats   Stats

	shapes   []*Shape
	tracer   Tracer
	gcActive bool
	inMajor  bool
}

// New returns a heap emitting allocation and collection costs into stream.
func New(stream *cpu.Machine, cfg Config) *Heap {
	if cfg.NurserySize == 0 {
		cfg = DefaultConfig()
	}
	return &Heap{
		cfg:      cfg,
		stream:   stream,
		nextAddr: isa.RegionHeap,
		majorAt:  cfg.MajorThreshold,
	}
}

// Stats returns a copy of the collector statistics.
func (h *Heap) Stats() Stats { return h.stats }

// Stream returns the machine the heap retires into.
func (h *Heap) Stream() *cpu.Machine { return h.stream }

// AddRoots registers a root provider.
func (h *Heap) AddRoots(r RootProvider) { h.roots = append(h.roots, r) }

// NewShape registers an object layout. VTable addresses are spaced so that
// shape compares and dispatches have distinct cache/BTB behavior.
func (h *Heap) NewShape(name string, numFields int) *Shape {
	s := &Shape{
		Name:       name,
		ID:         uint32(len(h.shapes) + 1),
		VTableAddr: isa.RegionVMText + 0x80_0000 + uint64(len(h.shapes))*256,
		NumFields:  numFields,
	}
	h.shapes = append(h.shapes, s)
	return s
}

func (h *Heap) bump(size uint64) uint64 {
	// Round to 8 bytes like a real bump allocator.
	size = (size + 7) &^ 7
	a := h.nextAddr
	h.nextAddr += size
	return a
}

// allocCost emits the inlined fast-path bump allocation sequence: pointer
// add, limit compare + branch (not taken), header store.
func (h *Heap) allocCost(hdrAddr uint64) {
	h.stream.Ops(isa.ALU, 2)
	h.stream.Branch(siteAllocLimit.PC(), false)
	h.stream.Store(hdrAddr)
}

var (
	siteAllocLimit = isa.NewSite()
	siteBarrier    = isa.NewSite()
)

// AllocObj allocates an object with nFields fixed fields, running a minor
// collection first if the nursery budget is exhausted.
func (h *Heap) AllocObj(shape *Shape, nFields int) *Obj {
	o, f := valueTail(nFields)
	o.Shape, o.Fields, o.live = shape, f, true
	o.recomputeSize()
	h.allocate(o)
	if h.tracer != nil {
		h.tracer.TraceAlloc(o, AllocObjKind)
	}
	return o
}

// coalloc returns a zero Obj and a zero T in one host allocation: a guest
// object's header and its payload. Obj is 160 bytes and Value 32, so every
// tail the two tables below ask for ([1..8]Value, 16…128 bytes) lands the
// struct exactly on a Go size class and no byte is wasted. Each object is
// still its own allocation, never a slot in a slab, so a dead guest object
// pins nothing but itself (DESIGN.md "Host memory discipline").
func coalloc[T any]() (*Obj, *T) {
	b := new(struct {
		Obj
		tail T
	})
	return &b.Obj, &b.tail
}

// valueTail returns a zero Obj and n zero Values with len == cap == n — a
// fields area or an array part. For 1 ≤ n ≤ 8 the two are one host
// allocation; n == 0 is the header alone with an empty, non-nil slice
// (recomputeSize tells "no array part" from "empty array part" by nil);
// beyond 8 the values are a second allocation.
func valueTail(n int) (*Obj, []Value) {
	switch n {
	case 1:
		o, t := coalloc[[1]Value]()
		return o, t[:]
	case 2:
		o, t := coalloc[[2]Value]()
		return o, t[:]
	case 3:
		o, t := coalloc[[3]Value]()
		return o, t[:]
	case 4:
		o, t := coalloc[[4]Value]()
		return o, t[:]
	case 5:
		o, t := coalloc[[5]Value]()
		return o, t[:]
	case 6:
		o, t := coalloc[[6]Value]()
		return o, t[:]
	case 7:
		o, t := coalloc[[7]Value]()
		return o, t[:]
	case 8:
		o, t := coalloc[[8]Value]()
		return o, t[:]
	}
	return &Obj{}, make([]Value, n)
}

// byteTail is valueTail for a bytes payload: one host allocation up to
// 128 bytes (99.8 % of the guest strings the benchmarks make are under 59),
// two beyond. The slice is cut to len == cap == n, so an append to it can
// never write into the spare end of a tail.
func byteTail(n int) (*Obj, []byte) {
	switch {
	case n == 0 || n > 128:
		return &Obj{}, make([]byte, n)
	case n <= 16:
		o, t := coalloc[[16]byte]()
		return o, t[:n:n]
	case n <= 32:
		o, t := coalloc[[32]byte]()
		return o, t[:n:n]
	case n <= 48:
		o, t := coalloc[[48]byte]()
		return o, t[:n:n]
	case n <= 64:
		o, t := coalloc[[64]byte]()
		return o, t[:n:n]
	case n <= 80:
		o, t := coalloc[[80]byte]()
		return o, t[:n:n]
	case n <= 96:
		o, t := coalloc[[96]byte]()
		return o, t[:n:n]
	}
	o, t := coalloc[[128]byte]()
	return o, t[:n:n]
}

// AllocBytes allocates a bytes-payload object (guest string) whose Bytes
// are n zeroes for the caller to fill before anything else can see the
// object. The tracer has fired by then; it reads only lengths.
func (h *Heap) AllocBytes(shape *Shape, n int) *Obj {
	o, b := byteTail(n)
	o.Shape, o.Bytes, o.live = shape, b, true
	o.recomputeSize()
	h.allocate(o)
	if h.tracer != nil {
		h.tracer.TraceAlloc(o, AllocBytesKind)
	}
	return o
}

// AllocElems allocates an object with an array part of length n. Without
// fixed fields (every caller the benchmarks reach) header and array part
// are one host allocation up to eight elements; with them the fields ride
// with the header and the array part is apart.
func (h *Heap) AllocElems(shape *Shape, nFields, n int) *Obj {
	var o *Obj
	var fields, elems []Value
	if nFields == 0 {
		o, elems = valueTail(n)
		fields = []Value{}
	} else {
		o, fields = valueTail(nFields)
		elems = make([]Value, n)
	}
	o.Shape, o.Fields, o.Elems, o.live = shape, fields, elems, true
	h.allocate(o)
	o.elemsAddr = h.bump(8 * uint64(max(n, 1)))
	o.recomputeSize()
	if h.tracer != nil {
		h.tracer.TraceAlloc(o, AllocElemsKind)
	}
	return o
}

func (h *Heap) allocate(o *Obj) {
	// The re-entrancy decision belongs to minor: if a collection is
	// already running, the request surfaces as a TagGCSkipped event
	// rather than disappearing here.
	if h.sinceMinor >= h.cfg.NurserySize {
		h.minor(core.GCReasonAlloc)
	}
	o.addr = h.bump(o.size)
	h.nextUID++
	o.uid = h.nextUID
	h.allocCost(o.addr)
	h.sinceMinor += o.size
	h.stats.AllocObjects++
	h.stats.AllocBytes += o.size
	h.nursery = append(h.nursery, o)
}

// RawAlloc reserves simulated address space for a native payload table
// (dict index arrays, string-builder buffers). The space is accounted to
// the owning object via heap.NativeSized, not tracked individually.
func (h *Heap) RawAlloc(size uint64) uint64 { return h.bump(size) }

// checkLive panics on dead-object access in debug mode.
func (h *Heap) checkLive(o *Obj) {
	if h.cfg.Debug && !o.live {
		panic(fmt.Sprintf("heap: access to dead object %s@%#x", o.Shape.Name, o.addr))
	}
}

// ReadField loads field i, emitting the load.
func (h *Heap) ReadField(o *Obj, i int) Value {
	h.checkLive(o)
	h.stream.Load(o.FieldAddr(i))
	return o.Fields[i]
}

// WriteField stores v into field i with the generational write barrier.
func (h *Heap) WriteField(o *Obj, i int, v Value) {
	h.checkLive(o)
	h.barrier(o, v)
	h.stream.Store(o.FieldAddr(i))
	o.Fields[i] = v
}

// ReadElem loads array element i.
func (h *Heap) ReadElem(o *Obj, i int) Value {
	h.checkLive(o)
	h.stream.Load(o.ElemAddr(i))
	return o.Elems[i]
}

// WriteElem stores v into array element i with the write barrier.
func (h *Heap) WriteElem(o *Obj, i int, v Value) {
	h.checkLive(o)
	h.barrier(o, v)
	h.stream.Store(o.ElemAddr(i))
	o.Elems[i] = v
}

// LoadByte loads byte i of the payload.
func (h *Heap) LoadByte(o *Obj, i int) byte {
	h.checkLive(o)
	h.stream.Load(o.ByteAddr(i))
	return o.Bytes[i]
}

// regrow returns old's contents in a fresh slice of length n and capacity
// c, and zeroes old. An outgrown fields area or array part may be the tail
// of its object's own host allocation (valueTail), which lives as long as
// the object does: references left in it would keep guest objects the
// simulated collector has freed reachable for the host's.
func regrow(old []Value, n, c int) []Value {
	ne := make([]Value, n, c)
	copy(ne, old)
	clear(old)
	return ne
}

// GrowElems reallocates the array part to capacity n, emitting the copy
// cost (the list-resize path of the runtime).
func (h *Heap) GrowElems(o *Obj, n int) {
	h.checkLive(o)
	old := len(o.Elems)
	o.Elems = regrow(o.Elems, n, n)
	o.elemsAddr = h.bump(8 * uint64(max(n, 1)))
	// memcpy of the old contents plus allocation.
	h.allocCost(o.elemsAddr)
	h.stream.Ops(isa.Load, min(old, n))
	h.stream.Ops(isa.Store, min(old, n))
	delta := 16 + 8*uint64(n-old)
	o.size += delta
	h.sinceMinor += delta
	h.stats.AllocBytes += delta
}

// AppendElem appends to the array part with amortized-doubling growth (the
// list-append fast path of the runtime).
func (h *Heap) AppendElem(o *Obj, v Value) {
	h.checkLive(o)
	n := len(o.Elems)
	if n == cap(o.Elems) {
		newCap := cap(o.Elems)*2 + 4
		o.Elems = regrow(o.Elems, n, newCap)
		o.elemsAddr = h.bump(8 * uint64(newCap))
		h.allocCost(o.elemsAddr)
		h.stream.Ops(isa.Load, n)
		h.stream.Ops(isa.Store, n)
		delta := 8 * uint64(newCap-n)
		o.size += delta
		h.sinceMinor += delta
		h.stats.AllocBytes += delta
	}
	h.barrier(o, v)
	o.Elems = append(o.Elems, v)
	h.stream.Store(o.ElemAddr(n))
	h.stream.Ops(isa.ALU, 2)
}

// GrowFields extends the fixed-field area to at least n slots (attribute
// added to a class after instances exist).
func (h *Heap) GrowFields(o *Obj, n int) {
	if n <= len(o.Fields) {
		return
	}
	old := len(o.Fields)
	o.Fields = regrow(o.Fields, n, n)
	h.stream.Ops(isa.Load, old)
	h.stream.Ops(isa.Store, n)
	delta := 8 * uint64(n-old)
	o.size += delta
	h.sinceMinor += delta
}

// Barrier runs the write barrier for storing v somewhere inside o without
// performing a store (used by Native payload mutations).
func (h *Heap) Barrier(o *Obj, v Value) { h.barrier(o, v) }

func (h *Heap) barrier(o *Obj, v Value) {
	// Flag check + branch; the slow path (remembered-set insert) is rare.
	h.stream.Ops(isa.ALU, 1)
	slow := o.gen == 1 && v.Kind == KindRef && v.O != nil && v.O.gen == 0 && !o.inRemset
	h.stream.Branch(siteBarrier.PC(), slow)
	if slow {
		o.inRemset = true
		h.remset = append(h.remset, o)
		h.stream.Store(isa.RegionStack + 0x100000 + uint64(len(h.remset)%4096)*8)
	}
}
