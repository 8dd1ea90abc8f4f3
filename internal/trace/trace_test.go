package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
)

// genTrace builds a synthetic trace from a seed: header strings, config,
// and a generated event stream exercising every event kind with
// seed-dependent values, including varint-boundary args.
func genTrace(seed uint64) *Trace {
	rng := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	rec := NewRecorder(Header{
		Guest:  GuestPy,
		Name:   "gen",
		VM:     "pypy",
		Seed:   seed,
		Source: "def main():\n    return 1\n",
		Config: ConfigSnapshot{
			Threshold:       int64(next() % 100),
			BridgeThreshold: -3,
			NurserySize:     32 << 10,
			MajorThreshold:  384 << 10,
			MajorGrowthBits: math.Float64bits(1.82),
		},
	})
	boundary := []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	n := 20 + int(seed%300)
	var instr uint64
	for i := 0; i < n; i++ {
		instr += next() % 1000
		switch next() % 5 {
		case 0:
			rec.emit(EvShape, next()%64, next()%8)
		case 1:
			rec.emit(EvAlloc, next()%64, next()%3, next()%8, next()%1000, boundary[next()%uint64(len(boundary))])
		case 2:
			rec.emit(EvFree, 1+next()%100)
		case 3:
			rec.OnAnnotation(core.Annotation{Tag: core.Tag(next() % 24), Arg: boundary[next()%uint64(len(boundary))]}, instr, instr*2)
		default:
			for j := uint64(0); j < next()%10; j++ {
				rec.OnAnnotation(core.Annotation{Tag: core.TagDispatch, Arg: 1}, instr+j, instr*2)
			}
		}
	}
	sum := Summary{
		Checksum:     int64(next()) - int64(next()),
		HeapChecksum: next(),
		Phases:       make([]PhaseSum, core.NumPhases),
		GC:           GCSum{Minor: next() % 100, Major: next() % 10, AllocObjects: next() % 10000},
	}
	var units uint64
	for i := range sum.Phases {
		u := next() % 1000000
		sum.Phases[i] = PhaseSum{Instrs: next() % 100000, CyclesBits: math.Float64bits(cpu.CyclesOf(u))}
		sum.Instrs += sum.Phases[i].Instrs
		units += u
	}
	sum.CyclesBits = math.Float64bits(cpu.CyclesOf(units))
	return rec.Finish(sum)
}

// TestRoundTripIdentity is the core format property: encode→decode→
// encode is byte-identical, and the decoded struct re-describes the
// original, over many generated event streams.
func TestRoundTripIdentity(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		tr := genTrace(seed)
		enc := tr.Encode()
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("seed %d: encode(decode(encode)) differs", seed)
		}
		if dec.Header.Name != tr.Header.Name || dec.Header.Config != tr.Header.Config ||
			dec.Summary.Checksum != tr.Summary.Checksum || dec.Summary.Events != tr.Summary.Events {
			t.Fatalf("seed %d: decoded fields differ", seed)
		}
		if dec.Hash() != tr.Hash() {
			t.Fatalf("seed %d: hash differs across round trip", seed)
		}
	}
}

// TestDecodeRejects pins the decoder's error taxonomy on malformed
// input: wrong magic, wrong version, truncation at every byte boundary,
// and bit corruption (CRC) all error instead of panicking or
// misreading.
func TestDecodeRejects(t *testing.T) {
	tr := genTrace(7)
	enc := tr.Encode()

	if _, err := Decode(nil); err != ErrMagic {
		t.Errorf("nil input: got %v, want ErrMagic", err)
	}
	if _, err := Decode([]byte("not a trace at all")); err != ErrMagic {
		t.Errorf("bad magic: got %v, want ErrMagic", err)
	}

	// Version bump must be rejected, not misread: patch the version
	// varint (offset 4; any small version is one byte) and fix the CRC so
	// the version check — not the checksum — is what fires.
	b := append([]byte(nil), enc...)
	b[4] = FormatVersion + 1
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	if _, err := Decode(b); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: got %v, want ErrVersion", err)
	}

	// Truncation at every prefix length: always an error, never a panic.
	for i := 0; i < len(enc); i++ {
		if _, err := Decode(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}

	// Single-bit corruption: the CRC catches it (or a structural check
	// fires first); either way Decode must error.
	for i := len(Magic); i < len(enc); i += 7 {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", i)
		}
	}

	// Trailing garbage is caught by the CRC.
	if _, err := Decode(append(append([]byte(nil), enc...), 0xAB)); err == nil {
		t.Error("trailing garbage decoded successfully")
	}
}

// TestEventCountCrossCheck: an event section inconsistent with the
// summary count is corrupt even when both parse individually.
func TestEventCountCrossCheck(t *testing.T) {
	tr := genTrace(3)
	tr.Summary.Events++
	if _, err := Decode(tr.Encode()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("event count mismatch: got %v, want ErrCorrupt", err)
	}
}

// TestSummaryTotalsCrossCheck: a summary whose totals are not the sums of
// its phases — instructions, or cycles in whole units — is corrupt.
func TestSummaryTotalsCrossCheck(t *testing.T) {
	for name, mutate := range map[string]func(*Summary){
		"instrs":       func(s *Summary) { s.Instrs++ },
		"phase instrs": func(s *Summary) { s.Phases[2].Instrs-- },
		"cycles":       func(s *Summary) { s.CyclesBits = math.Float64bits(s.Cycles() + cpu.CyclesOf(1)) },
		"phase cycles": func(s *Summary) {
			s.Phases[1].CyclesBits = math.Float64bits(math.Float64frombits(s.Phases[1].CyclesBits) + 0.25)
		},
	} {
		tr := genTrace(5)
		mutate(&tr.Summary)
		if _, err := Decode(tr.Encode()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s mismatch: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDispatchCompression: dispatch ticks run-length compress and
// flush correctly around interleaved events.
func TestDispatchCompression(t *testing.T) {
	rec := NewRecorder(Header{Guest: GuestPy, Name: "d", VM: "pypy"})
	for i := 0; i < 1000; i++ {
		rec.OnAnnotation(core.Annotation{Tag: core.TagDispatch, Arg: 2}, uint64(i*10), 0)
	}
	rec.OnAnnotation(core.Annotation{Tag: core.TagGCMinorStart, Arg: 1}, 10000, 0)
	for i := 0; i < 5; i++ {
		rec.OnAnnotation(core.Annotation{Tag: core.TagDispatch, Arg: 1}, uint64(10100+i), 0)
	}
	tr := rec.Finish(Summary{})
	evs, err := tr.Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3 (dispatch, annot, dispatch)", len(evs))
	}
	if evs[0].Kind != EvDispatch || evs[0].Args[0] != 1000 || evs[0].Args[1] != 2000 {
		t.Errorf("run 1: %+v", evs[0])
	}
	if evs[1].Kind != EvAnnot || evs[1].Args[0] != uint64(core.TagGCMinorStart) {
		t.Errorf("annot: %+v", evs[1])
	}
	if evs[2].Kind != EvDispatch || evs[2].Args[0] != 5 || evs[2].Args[1] != 5 {
		t.Errorf("run 2: %+v", evs[2])
	}
}

// TestRecorderHeapEvents drives a real heap with the recorder attached
// and checks the alloc/free stream: every allocation appears with its
// kind, shapes are declared before first use, and nursery deaths
// surface as frees with valid ages.
func TestRecorderHeapEvents(t *testing.T) {
	mach := cpu.New(cpu.DefaultParams())
	rec := NewRecorder(Header{Guest: GuestPy, Name: "heap", VM: "pypy"})
	h := heap.New(mach, heap.Config{NurserySize: 4 << 10, MajorThreshold: 64 << 10, MajorGrowth: 1.82})
	h.SetTracer(rec)
	shape := h.NewShape("node", 2)
	var keep []*heap.Obj
	h.AddRoots(heap.RootFunc(func(visit func(*heap.Obj)) {
		for _, o := range keep {
			visit(o)
		}
	}))
	for i := 0; i < 200; i++ {
		o := h.AllocElems(shape, 2, 8)
		if i%10 == 0 {
			keep = append(keep, o) // survivors
		}
		h.AllocBytes(shape, 16) // dies young
	}
	h.Minor()
	tr := rec.Finish(Summary{})
	var allocs, frees, shapes int
	declared := map[uint64]bool{}
	if err := tr.WalkEvents(func(e Event) error {
		switch e.Kind {
		case EvShape:
			declared[e.Args[0]] = true
			shapes++
		case EvAlloc:
			if !declared[e.Args[0]] {
				t.Fatalf("alloc of undeclared shape %d", e.Args[0])
			}
			allocs++
		case EvFree:
			if e.Args[0] == 0 {
				t.Fatal("free with age 0")
			}
			frees++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if allocs != 400 {
		t.Errorf("recorded %d allocs, want 400", allocs)
	}
	if shapes != 1 {
		t.Errorf("declared %d shapes, want 1", shapes)
	}
	if frees == 0 {
		t.Error("no frees recorded despite nursery deaths")
	}
	st := h.Stats()
	if uint64(frees) != st.CollectedYoung {
		t.Errorf("frees %d != collected-young %d", frees, st.CollectedYoung)
	}
}

// TestReplayAllocs replays a recorded heap session into a fresh heap
// and checks the demography carries over: same allocation count, GC
// actually triggered, frees applied.
func TestReplayAllocs(t *testing.T) {
	cfg := heap.Config{NurserySize: 4 << 10, MajorThreshold: 64 << 10, MajorGrowth: 1.82}

	mach := cpu.New(cpu.DefaultParams())
	rec := NewRecorder(Header{Guest: GuestPy, Name: "replay", VM: "pypy"})
	h := heap.New(mach, cfg)
	h.SetTracer(rec)
	shape := h.NewShape("cell", 1)
	var keep []*heap.Obj
	h.AddRoots(heap.RootFunc(func(visit func(*heap.Obj)) {
		for _, o := range keep {
			visit(o)
		}
	}))
	for i := 0; i < 500; i++ {
		o := h.AllocObj(shape, 1)
		if i%7 == 0 {
			keep = append(keep, o)
		}
		if len(keep) > 20 {
			keep = keep[1:]
		}
	}
	h.Minor()
	tr := rec.Finish(Summary{})
	recorded := h.Stats()

	mach2 := cpu.New(cpu.DefaultParams())
	h2 := heap.New(mach2, cfg)
	stats, err := ReplayAllocs(h2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Allocs != recorded.AllocObjects {
		t.Errorf("replayed %d allocs, recorded heap saw %d", stats.Allocs, recorded.AllocObjects)
	}
	replayed := h2.Stats()
	if replayed.Minor == 0 {
		t.Error("replay triggered no minor collection")
	}
	if replayed.AllocObjects != recorded.AllocObjects {
		t.Errorf("replayed heap allocated %d objects, recorded %d", replayed.AllocObjects, recorded.AllocObjects)
	}
	if stats.Frees == 0 {
		t.Error("no frees applied")
	}

	// Replaying the replay records the same allocation stream: the
	// determinism property the bursty fixtures rely on.
	mach3 := cpu.New(cpu.DefaultParams())
	rec3 := NewRecorder(Header{Guest: GuestPy, Name: "replay", VM: "pypy"})
	h3 := heap.New(mach3, cfg)
	h3.SetTracer(rec3)
	if _, err := ReplayAllocs(h3, tr); err != nil {
		t.Fatal(err)
	}
	tr3 := rec3.Finish(Summary{})
	var a1, a3 []Event
	tr.WalkEvents(func(e Event) error {
		if e.Kind == EvAlloc {
			a1 = append(a1, Event{Kind: e.Kind, Args: append([]uint64(nil), e.Args...)})
		}
		return nil
	})
	tr3.WalkEvents(func(e Event) error {
		if e.Kind == EvAlloc {
			a3 = append(a3, Event{Kind: e.Kind, Args: append([]uint64(nil), e.Args...)})
		}
		return nil
	})
	if len(a1) != len(a3) {
		t.Fatalf("re-recorded replay has %d allocs, original %d", len(a3), len(a1))
	}
	for i := range a1 {
		// Shape IDs renumber across heaps; kind, fields, payload carry.
		if a1[i].Args[1] != a3[i].Args[1] || a1[i].Args[2] != a3[i].Args[2] || a1[i].Args[3] != a3[i].Args[3] {
			t.Fatalf("alloc %d differs: %v vs %v", i, a1[i].Args, a3[i].Args)
		}
	}
}

// hostileAllocTraces are traces Decode accepts — valid CRC, every event as
// long as its schema says — whose alloc events ReplayAllocs must refuse:
// each took the process down (makeslice panic, out of memory, index out of
// range) while the arguments were trusted.
func hostileAllocTraces() map[string]*Trace {
	build := func(schema []EventDef, args ...uint64) *Trace {
		rec := NewRecorder(Header{Guest: GuestPy, Name: "hostile", VM: "pypy"})
		if schema != nil {
			rec.hdr.Schema = schema
		}
		rec.emit(EvAlloc, args...)
		return rec.Finish(Summary{})
	}
	bytesKind, elemsKind := uint64(heap.AllocBytesKind), uint64(heap.AllocElemsKind)
	return map[string]*Trace{
		"payload 1<<62":       build(nil, 1, bytesKind, 0, 1<<62, 16+1<<62),
		"payload 1<<40":       build(nil, 1, bytesKind, 0, 1<<40, 16+1<<40),
		"elems size overflow": build(nil, 1, elemsKind, 0, 1<<61, 32),
		"fields 1<<40":        build(nil, 1, uint64(heap.AllocObjKind), 1<<40, 0, 16+8<<40),
		"size disagrees":      build(nil, 1, bytesKind, 0, 1000, 16),
		"over the ceiling":    build(nil, 1, bytesKind, 0, maxReplayObject, 16+maxReplayObject),
		"unknown kind":        build(nil, 1, 9, 0, 0, 16),
		"short alloc schema": build([]EventDef{{Kind: EvAlloc, Name: "alloc", NArgs: 3}},
			1, bytesKind, 0),
	}
}

// TestReplayAllocsRejectsHostileAllocs: each is ErrCorrupt after a Decode
// round trip, none is a panic or an allocation of what the event names.
func TestReplayAllocsRejectsHostileAllocs(t *testing.T) {
	for name, tr := range hostileAllocTraces() {
		decoded, err := Decode(tr.Encode())
		if err != nil {
			t.Errorf("%s: Decode refused it (%v): the case no longer reaches ReplayAllocs", name, err)
			continue
		}
		h := heap.New(cpu.New(cpu.DefaultParams()), heap.DefaultConfig())
		if stats, err := ReplayAllocs(h, decoded); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v after %d allocs, want ErrCorrupt", name, err, stats.Allocs)
		}
	}
}

// TestReplayAllocsRejectsBadFree: a free pointing before the start of
// the stream is corrupt, not a panic.
func TestReplayAllocsRejectsBadFree(t *testing.T) {
	rec := NewRecorder(Header{Guest: GuestPy, Name: "bad", VM: "pypy"})
	rec.emit(EvFree, 5) // free with no allocations yet
	tr := rec.Finish(Summary{})
	mach := cpu.New(cpu.DefaultParams())
	h := heap.New(mach, heap.Config{NurserySize: 4 << 10, MajorThreshold: 64 << 10, MajorGrowth: 1.82})
	if _, err := ReplayAllocs(h, tr); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestFileRoundTrip covers the file helpers and name flattening.
func TestFileRoundTrip(t *testing.T) {
	tr := genTrace(42)
	dir := t.TempDir()
	path := dir + "/" + FileName("bench@abc/x", "pypy-tiered")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != tr.Hash() {
		t.Fatal("file round trip changed content hash")
	}
	if FileName("a/b:c d", "v") != "a-b-c-d-v.mtt" {
		t.Errorf("FileName flattening: got %q", FileName("a/b:c d", "v"))
	}
}
