package mtjit

import "metajit/internal/heap"

// Optimizer settings; the ablation benches toggle these.
type OptConfig struct {
	Fold     bool // constant folding
	Guards   bool // redundant-guard elimination
	CSE      bool // heap-access CSE / store-to-load forwarding
	Virtuals bool // escape analysis / allocation removal
	DCE      bool // dead code elimination
}

// AllOpts enables every pass (the production configuration).
func AllOpts() OptConfig {
	return OptConfig{Fold: true, Guards: true, CSE: true, Virtuals: true, DCE: true}
}

// NoOpts disables every pass (ablation baseline).
func NoOpts() OptConfig { return OptConfig{} }

// optimizer rewrites a recorded trace in place. Refs are SSA: each register
// is assigned exactly once, so facts about a ref hold for the rest of the
// trace.
type optimizer struct {
	cfg    OptConfig
	ops    []Op
	consts []heap.Value

	subst map[Ref]Ref // replacement refs (folding, CSE forwarding)

	knownClass map[Ref]*heap.Shape
	knownTruth map[Ref]bool
	knownValue map[Ref]bool // guard_value already emitted
	nonnull    map[Ref]bool

	fieldCache map[fieldKey]Ref
	elemCache  map[elemKey]Ref
	lenCache   map[Ref]Ref

	virtual map[Ref]*virtState

	removed []bool
}

type fieldKey struct {
	obj Ref
	idx int64
}

type elemKey struct {
	obj Ref
	idx Ref
}

type virtState struct {
	shape    *heap.Shape
	isArray  bool
	fields   []Ref
	elems    []Ref
	numField int
}

// Optimize runs the configured passes over the trace and returns the
// number of ops removed (compile-effort statistics).
func Optimize(t *Trace, cfg OptConfig) int {
	o := &optimizer{
		cfg:        cfg,
		ops:        t.Ops,
		consts:     t.Consts,
		subst:      map[Ref]Ref{},
		knownClass: map[Ref]*heap.Shape{},
		knownTruth: map[Ref]bool{},
		knownValue: map[Ref]bool{},
		nonnull:    map[Ref]bool{},
		fieldCache: map[fieldKey]Ref{},
		elemCache:  map[elemKey]Ref{},
		lenCache:   map[Ref]Ref{},
		virtual:    map[Ref]*virtState{},
		removed:    make([]bool, len(t.Ops)),
	}
	if cfg.Virtuals {
		o.findVirtuals()
	}
	o.forward()
	if cfg.DCE {
		o.dce()
	}
	// Compact.
	kept := t.Ops[:0]
	removedCount := 0
	for i := range o.ops {
		if o.removed[i] {
			removedCount++
			continue
		}
		kept = append(kept, o.ops[i])
	}
	t.Ops = kept
	t.Consts = o.consts
	return removedCount
}

// constVal returns the constant value of a ref if it is constant.
func (o *optimizer) constVal(r Ref) (heap.Value, bool) {
	if r.IsConst() {
		return o.consts[r.ConstIndex()], true
	}
	return heap.Nil, false
}

func (o *optimizer) resolve(r Ref) Ref {
	for {
		s, ok := o.subst[r]
		if !ok {
			return r
		}
		r = s
	}
}

func (o *optimizer) internConst(v heap.Value) Ref {
	o.consts = append(o.consts, v)
	return ConstRef(len(o.consts) - 1)
}

// findVirtuals computes the escape fixpoint over allocation results. The
// pre-pass simulates the forward pass's store-to-load forwarding so that a
// value read back out of a candidate (possibly another candidate) is
// correctly escaped when the read result is used in an escaping position.
func (o *optimizer) findVirtuals() {
	candidates := map[Ref]int{} // ref -> op index
	for i := range o.ops {
		op := &o.ops[i]
		if op.Opc == OpNewWithVtable || op.Opc == OpNewArray {
			candidates[op.Res] = i
		}
	}
	escaped := map[Ref]bool{}
	// aliasOf forwards getfield/getarrayitem results from candidates to
	// the stored value (exact in a straight-line SSA trace).
	aliasOf := map[Ref]Ref{}
	resolve := func(r Ref) Ref {
		for {
			a, ok := aliasOf[r]
			if !ok {
				return r
			}
			r = a
		}
	}
	fieldOf := map[fieldKey]Ref{}
	elemOf := map[fieldKey]Ref{}
	// storedInto[v] lists candidate objects that v was stored into; if
	// the container escapes, so does the content.
	storedInto := map[Ref][]Ref{}
	// markEscape reports whether it changed anything: non-candidates
	// never do, which guarantees the fixpoint below terminates.
	markEscape := func(r Ref) bool {
		r = resolve(r)
		if _, isCand := candidates[r]; isCand && !escaped[r] {
			escaped[r] = true
			return true
		}
		return false
	}
	constIdxOf := func(r Ref) (int64, bool) {
		if v, ok := o.constVal(r); ok && v.Kind == heap.KindInt {
			return v.I, true
		}
		return 0, false
	}
	for i := range o.ops {
		op := &o.ops[i]
		switch op.Opc {
		case OpSetfieldGC:
			if _, ok := candidates[resolve(op.A)]; ok {
				a := resolve(op.A)
				b := resolve(op.B)
				fieldOf[fieldKey{obj: a, idx: op.Aux}] = b
				storedInto[b] = append(storedInto[b], a)
			} else {
				markEscape(op.B) // stored into a real object
			}
		case OpSetarrayitemGC:
			a := resolve(op.A)
			if _, ok := candidates[a]; ok {
				idx, constIdx := constIdxOf(op.B)
				if !constIdx {
					// Dynamic index: the forward pass cannot track
					// the element; force the container.
					markEscape(a)
					markEscape(op.C)
				} else {
					c := resolve(op.C)
					elemOf[fieldKey{obj: a, idx: idx}] = c
					storedInto[c] = append(storedInto[c], a)
				}
			} else {
				markEscape(op.C)
			}
		case OpGetfieldGC:
			if a := resolve(op.A); isCandidate(candidates, a) {
				if v, ok := fieldOf[fieldKey{obj: a, idx: op.Aux}]; ok {
					aliasOf[op.Res] = v
				}
			}
		case OpGetarrayitemGC:
			if a := resolve(op.A); isCandidate(candidates, a) {
				idx, constIdx := constIdxOf(op.B)
				if !constIdx {
					markEscape(a)
				} else if v, ok := elemOf[fieldKey{obj: a, idx: idx}]; ok {
					aliasOf[op.Res] = v
				}
			}
		case OpArraylenGC, OpStrlen, OpUnicodelen:
			// Length reads never escape.
		case OpJump, OpFinish:
			for _, a := range op.Args {
				markEscape(a)
			}
		case OpPtrEq, OpPtrNe, OpSameAs:
			markEscape(op.A)
			markEscape(op.B)
		case OpGuardValue, OpGuardIsnull:
			markEscape(op.A)
		default:
			if op.Opc.IsCall() {
				for _, a := range op.Args {
					markEscape(a)
				}
			}
		}
	}
	// Propagate: content of an escaping container escapes.
	for changed := true; changed; {
		changed = false
		for content, containers := range storedInto {
			if escaped[resolve(content)] {
				continue
			}
			for _, c := range containers {
				if escaped[resolve(c)] {
					if markEscape(content) {
						changed = true
					}
					break
				}
			}
		}
	}
	// Escaped containers force their contents transitively through the
	// alias map as well: re-run once more over stores.
	for changed := true; changed; {
		changed = false
		for k, v := range fieldOf {
			if escaped[resolve(k.obj)] && markEscape(v) {
				changed = true
			}
		}
		for k, v := range elemOf {
			if escaped[resolve(k.obj)] && markEscape(v) {
				changed = true
			}
		}
	}
	for r, i := range candidates {
		if escaped[r] {
			continue
		}
		op := &o.ops[i]
		vs := &virtState{shape: op.Shape}
		if op.Opc == OpNewArray {
			nf, n := unpackNewArray(op.Aux)
			vs.isArray = true
			vs.numField = nf
			vs.fields = make([]Ref, nf)
			vs.elems = make([]Ref, n)
		} else {
			vs.numField = int(op.Aux)
			vs.fields = make([]Ref, op.Aux)
		}
		nilRef := RefNone
		for j := range vs.fields {
			vs.fields[j] = nilRef
		}
		for j := range vs.elems {
			vs.elems[j] = nilRef
		}
		o.virtual[r] = vs
	}
}

func isCandidate(candidates map[Ref]int, r Ref) bool {
	_, ok := candidates[r]
	return ok
}

// forward is the main rewrite walk.
func (o *optimizer) forward() {
	for i := range o.ops {
		op := &o.ops[i]
		// Apply substitutions to operands.
		op.A = o.resolve(op.A)
		op.B = o.resolve(op.B)
		op.C = o.resolve(op.C)
		for j := range op.Args {
			op.Args[j] = o.resolve(op.Args[j])
		}
		if op.Resume != nil {
			o.rewriteResume(op.Resume)
		}

		switch {
		case op.Opc.IsGuard():
			o.forwardGuard(i, op)
		case op.Opc == OpNewWithVtable, op.Opc == OpNewArray:
			if _, ok := o.virtual[op.Res]; ok {
				o.removed[i] = true
			}
		case op.Opc == OpGetfieldGC:
			o.forwardGetfield(i, op)
		case op.Opc == OpSetfieldGC:
			o.forwardSetfield(i, op)
		case op.Opc == OpGetarrayitemGC:
			o.forwardGetelem(i, op)
		case op.Opc == OpSetarrayitemGC:
			o.forwardSetelem(i, op)
		case op.Opc == OpArraylenGC:
			if vs, ok := o.virtual[op.A]; ok {
				o.subst[op.Res] = o.internConst(heap.IntVal(int64(len(vs.elems))))
				o.removed[i] = true
			} else if o.cfg.CSE {
				if prev, ok := o.lenCache[op.A]; ok {
					o.subst[op.Res] = prev
					o.removed[i] = true
				} else {
					o.lenCache[op.A] = op.Res
				}
			}
		case op.Opc.IsCall():
			if o.cfg.CSE {
				o.fieldCache = map[fieldKey]Ref{}
				o.elemCache = map[elemKey]Ref{}
				o.lenCache = map[Ref]Ref{}
			}
		case op.Opc.Pure() && o.cfg.Fold:
			o.foldPure(i, op)
		}

		// Result-type inference: arithmetic results have statically
		// known classes, so later guard_class on them is redundant
		// (PyPy's boxes carry known types through the optimizer).
		if o.cfg.Guards && !o.removed[i] && op.Res != RefNone {
			if sh := resultShape(op.Opc); sh != nil {
				o.knownClass[op.Res] = sh
			}
		}
	}
}

// resultShape returns the statically known class of an op's result, or nil.
func resultShape(opc Opcode) *heap.Shape {
	switch opc {
	case OpIntAdd, OpIntSub, OpIntMul, OpIntFloorDiv, OpIntMod,
		OpIntAnd, OpIntOr, OpIntXor, OpIntLshift, OpIntRshift, OpIntNeg,
		OpIntAddOvf, OpIntSubOvf, OpIntMulOvf, OpCastFloatToInt,
		OpArraylenGC, OpStrlen, OpUnicodelen, OpStrgetitem, OpUnicodegetitem:
		return ShapeIntKind
	case OpFloatAdd, OpFloatSub, OpFloatMul, OpFloatTruediv, OpFloatNeg,
		OpFloatAbs, OpCastIntToFloat:
		return ShapeFloatKind
	case OpIntLt, OpIntLe, OpIntEq, OpIntNe, OpIntGt, OpIntGe, OpIntIsTrue,
		OpFloatLt, OpFloatLe, OpFloatEq, OpFloatNe, OpFloatGt, OpFloatGe,
		OpPtrEq, OpPtrNe:
		return ShapeBoolKind
	}
	return nil
}

func (o *optimizer) forwardGuard(i int, op *Op) {
	// Guards over allocation-removed objects MUST be removed (their
	// registers are never materialized); this is correctness, not an
	// optimization, so it runs regardless of cfg.Guards.
	if vs, ok := o.virtual[op.A]; ok {
		switch op.Opc {
		case OpGuardClass:
			if vs.shape != op.Shape {
				panic("mtjit: guard_class on virtual with mismatched shape")
			}
			o.removed[i] = true
			return
		case OpGuardNonnull:
			o.removed[i] = true
			return
		}
	}
	if !o.cfg.Guards {
		return
	}
	switch op.Opc {
	case OpGuardClass:
		if op.A.IsConst() {
			o.removed[i] = true // constants have a compile-time class
			return
		}
		if sh, ok := o.knownClass[op.A]; ok && sh == op.Shape {
			o.removed[i] = true
			return
		}
		o.knownClass[op.A] = op.Shape
		o.nonnull[op.A] = true
	case OpGuardNonnull:
		if _, ok := o.constVal(op.A); ok {
			o.removed[i] = true
			return
		}
		if o.nonnull[op.A] {
			o.removed[i] = true
			return
		}
		if _, ok := o.virtual[op.A]; ok {
			o.removed[i] = true
			return
		}
		o.nonnull[op.A] = true
	case OpGuardIsnull:
		if _, ok := o.constVal(op.A); ok {
			o.removed[i] = true
		}
	case OpGuardTrue, OpGuardFalse:
		if _, ok := o.constVal(op.A); ok {
			o.removed[i] = true
			return
		}
		want := op.Opc == OpGuardTrue
		if got, ok := o.knownTruth[op.A]; ok && got == want {
			o.removed[i] = true
			return
		}
		o.knownTruth[op.A] = want
	case OpGuardValue:
		if _, ok := o.constVal(op.A); ok {
			o.removed[i] = true
			return
		}
		if o.knownValue[op.A] {
			o.removed[i] = true
			return
		}
		o.knownValue[op.A] = true
	}
}

func (o *optimizer) forwardGetfield(i int, op *Op) {
	if vs, ok := o.virtual[op.A]; ok {
		f := vs.fields[op.Aux]
		if f == RefNone {
			f = o.internConst(heap.Nil)
		}
		o.subst[op.Res] = f
		o.removed[i] = true
		return
	}
	if !o.cfg.CSE {
		return
	}
	k := fieldKey{obj: op.A, idx: op.Aux}
	if prev, ok := o.fieldCache[k]; ok {
		o.subst[op.Res] = prev
		o.removed[i] = true
		return
	}
	o.fieldCache[k] = op.Res
}

func (o *optimizer) forwardSetfield(i int, op *Op) {
	if vs, ok := o.virtual[op.A]; ok {
		vs.fields[op.Aux] = op.B
		o.removed[i] = true
		return
	}
	if !o.cfg.CSE {
		return
	}
	// Invalidate aliasing reads of the same field index on other
	// objects; forward this store on the same object.
	for k := range o.fieldCache {
		if k.idx == op.Aux && k.obj != op.A {
			delete(o.fieldCache, k)
		}
	}
	o.fieldCache[fieldKey{obj: op.A, idx: op.Aux}] = op.B
}

func (o *optimizer) forwardGetelem(i int, op *Op) {
	if vs, ok := o.virtual[op.A]; ok {
		if idx, ok2 := o.constVal(op.B); ok2 && idx.Kind == heap.KindInt &&
			idx.I >= 0 && int(idx.I) < len(vs.elems) {
			e := vs.elems[idx.I]
			if e == RefNone {
				e = o.internConst(heap.Nil)
			}
			o.subst[op.Res] = e
			o.removed[i] = true
			return
		}
		// Virtual indexed by a non-constant: should have escaped.
		panic("mtjit: virtual array with dynamic index survived escape analysis")
	}
	if !o.cfg.CSE {
		return
	}
	k := elemKey{obj: op.A, idx: op.B}
	if prev, ok := o.elemCache[k]; ok {
		o.subst[op.Res] = prev
		o.removed[i] = true
		return
	}
	o.elemCache[k] = op.Res
}

func (o *optimizer) forwardSetelem(i int, op *Op) {
	if vs, ok := o.virtual[op.A]; ok {
		if idx, ok2 := o.constVal(op.B); ok2 && idx.Kind == heap.KindInt &&
			idx.I >= 0 && int(idx.I) < len(vs.elems) {
			vs.elems[idx.I] = op.C
			o.removed[i] = true
			return
		}
		panic("mtjit: virtual array with dynamic index survived escape analysis")
	}
	if !o.cfg.CSE {
		return
	}
	o.elemCache = map[elemKey]Ref{}
	o.elemCache[elemKey{obj: op.A, idx: op.B}] = op.C
}

func (o *optimizer) foldPure(i int, op *Op) {
	switch op.Opc {
	case OpIntAddOvf, OpIntSubOvf, OpIntMulOvf:
		return // paired with a guard; leave alone
	}
	va, okA := o.constVal(op.A)
	if !okA {
		return
	}
	var res heap.Value
	if isBinary(op.Opc) {
		vb, okB := o.constVal(op.B)
		if !okB {
			return
		}
		r, ok := evalPureBin(op.Opc, va, vb)
		if !ok {
			return
		}
		res = r
	} else {
		r, ok := evalPureUn(op.Opc, va)
		if !ok {
			return
		}
		res = r
	}
	o.subst[op.Res] = o.internConst(res)
	o.removed[i] = true
}

func isBinary(opc Opcode) bool {
	switch opc {
	case OpIntNeg, OpFloatNeg, OpFloatAbs, OpCastIntToFloat, OpCastFloatToInt, OpSameAs, OpIntIsTrue:
		return false
	}
	return true
}

// rewriteResume applies substitutions to a resume snapshot and attaches
// virtual descriptors for allocation-removed objects it references.
func (o *optimizer) rewriteResume(r *ResumeState) {
	var virtRefs []Ref
	seen := map[Ref]bool{}
	var noteVirtual func(ref Ref)
	noteVirtual = func(ref Ref) {
		if _, ok := o.virtual[ref]; !ok || seen[ref] {
			return
		}
		seen[ref] = true
		virtRefs = append(virtRefs, ref)
		vs := o.virtual[ref]
		for _, f := range vs.fields {
			if f != RefNone {
				noteVirtual(o.resolve(f))
			}
		}
		for _, e := range vs.elems {
			if e != RefNone {
				noteVirtual(o.resolve(e))
			}
		}
	}
	for fi := range r.Frames {
		f := &r.Frames[fi]
		for si := range f.Slots {
			f.Slots[si] = o.resolve(f.Slots[si])
			noteVirtual(f.Slots[si])
		}
	}
	r.Virtuals = r.Virtuals[:0]
	for _, vr := range virtRefs {
		vs := o.virtual[vr]
		vd := VirtualDesc{
			Ref:       vr,
			Shape:     vs.shape,
			NumFields: vs.numField,
			ArrayLen:  -1,
		}
		if vs.isArray {
			vd.ArrayLen = len(vs.elems)
		}
		vd.FieldRefs = make([]Ref, len(vs.fields))
		for j, f := range vs.fields {
			if f == RefNone {
				vd.FieldRefs[j] = o.internConst(heap.Nil)
			} else {
				vd.FieldRefs[j] = o.resolve(f)
			}
		}
		vd.ElemRefs = make([]Ref, len(vs.elems))
		for j, e := range vs.elems {
			if e == RefNone {
				vd.ElemRefs[j] = o.internConst(heap.Nil)
			} else {
				vd.ElemRefs[j] = o.resolve(e)
			}
		}
		r.Virtuals = append(r.Virtuals, vd)
	}
}

// dce removes pure and read-only ops whose results are never used.
func (o *optimizer) dce() {
	used := map[Ref]bool{}
	use := func(r Ref) {
		if r > 0 {
			used[r] = true
		}
	}
	for i := len(o.ops) - 1; i >= 0; i-- {
		if o.removed[i] {
			continue
		}
		op := &o.ops[i]
		removable := op.Opc.Pure() ||
			op.Opc == OpGetfieldGC || op.Opc == OpGetarrayitemGC ||
			op.Opc == OpArraylenGC || op.Opc == OpStrgetitem ||
			op.Opc == OpStrlen || op.Opc == OpUnicodegetitem ||
			op.Opc == OpUnicodelen
		if removable && op.Res != RefNone && !used[op.Res] {
			o.removed[i] = true
			continue
		}
		use(op.A)
		use(op.B)
		use(op.C)
		for _, a := range op.Args {
			use(a)
		}
		if op.Resume != nil {
			for fi := range op.Resume.Frames {
				for _, s := range op.Resume.Frames[fi].Slots {
					use(s)
				}
			}
			for _, vd := range op.Resume.Virtuals {
				for _, f := range vd.FieldRefs {
					use(f)
				}
				for _, e := range vd.ElemRefs {
					use(e)
				}
			}
		}
	}
}
