package heap

import (
	"metajit/internal/core"
	"metajit/internal/isa"
)

var siteGCTrace = isa.NewSite()

// Fixed per-object costs of the collector's hot loops, retired as single
// batched blocks (see isa.Block).
var (
	promoteBlock = isa.NewBlock(isa.CC(isa.ALU, 12), isa.CC(isa.Load, 4), isa.CC(isa.Store, 3))
	markBlock    = isa.NewBlock(isa.CC(isa.ALU, 8), isa.CC(isa.Store, 1))
	sweepBlock   = isa.NewBlock(isa.CC(isa.Load, 1), isa.CC(isa.ALU, 1))
)

// Minor runs a nursery collection: survivors reachable from the VM roots
// and the remembered set are promoted to the old generation; everything
// else allocated since the previous minor collection is dead.
func (h *Heap) Minor() { h.minor(core.GCReasonExplicit) }

// minor is Minor with the trigger reason threaded into the annotation
// stream. A request arriving while a collection is already running is
// dropped, but never silently: the dropped request is announced as a
// TagGCSkipped event so stream consumers can account for it.
func (h *Heap) minor(reason uint64) {
	if h.gcActive {
		h.stats.Skipped++
		if m := telem(); m != nil {
			m.skipped.Inc()
		}
		h.stream.Annot(core.TagGCSkipped, reason)
		return
	}
	h.gcActive = true
	h.stream.Annot(core.TagGCMinorStart, reason)

	h.epoch++
	var promoted uint64

	visit := func(o *Obj) {
		if o == nil || o.mark == h.epoch {
			return
		}
		o.mark = h.epoch
		if o.gen == 0 {
			h.markStack = append(h.markStack, o)
		}
	}

	// Scan VM roots.
	nroots := 0
	for _, r := range h.roots {
		r.Roots(func(o *Obj) {
			nroots++
			visit(o)
		})
	}
	h.stream.Ops(isa.Load, nroots+4)

	// Scan the remembered set: old objects that may hold young refs.
	for _, o := range h.remset {
		h.scanChildren(o, visit)
		h.stream.Ops(isa.Load, 1+len(o.Fields)+len(o.Elems))
		o.inRemset = false
	}
	clear(h.remset)
	h.remset = h.remset[:0]

	// Trace and promote. Per-object overhead covers the type-info
	// lookup, forwarding-pointer install, and remembered-set checks of a
	// real generational collector.
	for o := h.popMark(); o != nil; o = h.popMark() {
		h.promote(o)
		promoted += o.size
		h.stream.Block(promoteBlock)
		h.stream.Indirect(siteGCTrace.PC(), o.Shape.VTableAddr)
		h.scanChildren(o, visit)
	}

	// Everything unreached in the nursery dies young.
	for _, o := range h.nursery {
		if o.gen == 0 && o.mark != h.epoch {
			o.live = false
			h.stats.CollectedYoung++
			if h.tracer != nil {
				h.tracer.TraceFree(o)
			}
		}
	}
	// Nursery reset: the collector re-zeroes the nursery for the next
	// allocation epoch (streaming stores, one per 64-byte line).
	h.stream.Ops(isa.Store, int(h.cfg.NurserySize/64))
	// Cleared, not just truncated: the backing array would otherwise keep
	// every dead nursery object reachable for the host collector.
	clear(h.nursery)
	h.nursery = h.nursery[:0]
	h.sinceMinor = 0
	h.oldBytes += promoted
	h.stats.Minor++
	h.stats.PromotedBytes += promoted
	if m := telem(); m != nil {
		m.minor.Inc()
		m.promotedBytes.Add(promoted)
	}

	h.stream.Annot(core.TagGCMinorEnd, promoted)
	h.gcActive = false

	if h.oldBytes > h.majorAt && !h.inMajor {
		h.major(core.GCReasonThreshold)
	}
}

// popMark pops the collector's mark stack (nil when empty), clearing the
// slot so the stack's backing array never pins a guest object.
func (h *Heap) popMark() *Obj {
	n := len(h.markStack) - 1
	if n < 0 {
		return nil
	}
	o := h.markStack[n]
	h.markStack[n] = nil
	h.markStack = h.markStack[:n]
	return o
}

// promote moves a surviving nursery object to the old generation: it gets a
// fresh simulated address and its contents are copied (emitted as bulk
// load/store traffic plus one cache touch at each end).
func (h *Heap) promote(o *Obj) {
	words := int(o.size / 8)
	newAddr := h.bump(o.size)
	h.stream.Load(o.addr)
	h.stream.Store(newAddr)
	if words > 1 {
		h.stream.Ops(isa.Load, words-1)
		h.stream.Ops(isa.Store, words-1)
	}
	o.addr = newAddr
	if o.Elems != nil {
		o.elemsAddr = h.bump(8 * uint64(max(len(o.Elems), 1)))
	}
	o.gen = 1
	h.old = append(h.old, o)
}

func (h *Heap) scanChildren(o *Obj, visit func(*Obj)) {
	for i := range o.Fields {
		if o.Fields[i].Kind == KindRef {
			visit(o.Fields[i].O)
		}
	}
	for i := range o.Elems {
		if o.Elems[i].Kind == KindRef {
			visit(o.Elems[i].O)
		}
	}
	if ns, ok := o.Native.(NativeScanner); ok {
		ns.ScanRefs(visit)
	}
}

// Major runs a full collection: a minor collection first (emptying the
// nursery), then a mark phase over the whole heap from the VM roots and a
// sweep that frees unreachable old objects.
func (h *Heap) Major() { h.major(core.GCReasonExplicit) }

func (h *Heap) major(reason uint64) {
	if h.gcActive || h.inMajor {
		h.stats.Skipped++
		if m := telem(); m != nil {
			m.skipped.Inc()
		}
		h.stream.Annot(core.TagGCSkipped, reason)
		return
	}
	h.inMajor = true
	defer func() { h.inMajor = false }()
	h.minor(core.GCReasonPreMajor) // empty the nursery first

	h.gcActive = true
	h.stream.Annot(core.TagGCMajorStart, reason)

	h.epoch++
	visit := func(o *Obj) {
		if o == nil || o.mark == h.epoch {
			return
		}
		o.mark = h.epoch
		h.markStack = append(h.markStack, o)
	}
	nroots := 0
	for _, r := range h.roots {
		r.Roots(func(o *Obj) {
			nroots++
			visit(o)
		})
	}
	h.stream.Ops(isa.Load, nroots+8)

	for o := h.popMark(); o != nil; o = h.popMark() {
		// Mark cost: header load, type dispatch, mark store, children
		// scan (two instructions per edge: load + null/gen test).
		h.stream.Load(o.addr)
		h.stream.Block(markBlock)
		h.stream.Indirect(siteGCTrace.PC()+4, o.Shape.VTableAddr)
		h.stream.Ops(isa.Load, len(o.Fields)+len(o.Elems))
		h.stream.Ops(isa.ALU, len(o.Fields)+len(o.Elems))
		h.scanChildren(o, visit)
	}

	// Sweep the old generation.
	var liveBytes uint64
	liveOld := h.old[:0]
	for _, o := range h.old {
		h.stream.Block(sweepBlock)
		if o.mark == h.epoch {
			liveOld = append(liveOld, o)
			liveBytes += o.size
		} else {
			o.live = false
			if h.tracer != nil {
				h.tracer.TraceFree(o)
			}
		}
	}
	// Clear the swept tail, or the backing array pins the dead objects
	// in host memory until the slice happens to regrow.
	clear(h.old[len(liveOld):])
	h.old = liveOld
	h.oldBytes = liveBytes
	h.majorAt = uint64(h.cfg.MajorGrowth * float64(liveBytes))
	if h.majorAt < h.cfg.MajorThreshold {
		h.majorAt = h.cfg.MajorThreshold
	}
	h.stats.Major++
	h.stats.LiveAtMajor = liveBytes
	if m := telem(); m != nil {
		m.major.Inc()
	}

	h.stream.Annot(core.TagGCMajorEnd, liveBytes)
	h.gcActive = false
}

// OldBytes returns the current accounted old-generation size.
func (h *Heap) OldBytes() uint64 { return h.oldBytes }
