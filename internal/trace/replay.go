package trace

import (
	"bytes"
	"fmt"

	"metajit/internal/heap"
)

// AllocStats summarizes one allocation replay.
type AllocStats struct {
	Allocs  uint64 // allocation events applied
	Frees   uint64 // free events applied (object released for collection)
	Shapes  uint64 // shapes declared
	Skipped uint64 // events of other kinds (annotations) passed over
	Bytes   uint64 // simulated bytes allocated
}

// maxReplayObject is the largest object, in simulated bytes, ReplayAllocs
// will allocate for one event: room for a two-million-element list, and
// small enough that a hostile trace cannot name an allocation the host
// cannot make.
const maxReplayObject = 16 << 20

// replayArgs is how many arguments ReplayAllocs reads from each event kind
// it acts on. Decode holds an event to its trace's own schema, and the
// schema is input too.
var replayArgs = [...]int{EvShape: 2, EvAlloc: 5, EvFree: 1}

// allocSize is the simulated size heap gives a fresh object of the kind,
// field count and payload an EvAlloc names — what the recorder wrote as
// the event's size argument. ok is false for a kind or a combination the
// heap does not make and for an object over maxReplayObject.
func allocSize(kind heap.AllocKind, nFields, payload uint64) (size uint64, ok bool) {
	if nFields > maxReplayObject || payload > maxReplayObject {
		return 0, false // and the sums below cannot overflow
	}
	switch kind {
	case heap.AllocObjKind:
		size, ok = 16+8*nFields, payload == 0
	case heap.AllocBytesKind:
		size, ok = 16+payload, nFields == 0
	case heap.AllocElemsKind:
		size, ok = 16+8*nFields+16+8*payload, true
	}
	return size, ok && size <= maxReplayObject
}

// ReplayAllocs drives a heap directly from a trace's recorded
// allocation/free event stream — the dj_trace idea: no guest code runs,
// but the generational collector sees the recorded object demography
// (shapes, sizes, allocation order, lifetimes) and collects under real
// pressure. Replayed objects stay reachable through a root table until
// their recorded death, then become garbage for the next collection.
//
// Fidelity note: allocation sites are replayed exactly (shape, kind,
// field/payload counts); post-allocation growth (list resizes, dict
// rehashes) is not in the event stream, so total allocated bytes can
// undercount the recording. The exact-reproduction path is guest
// re-drive (bench.FromTrace through the harness); this path exists to
// stress the collector with recorded patterns in isolation.
func ReplayAllocs(h *heap.Heap, t *Trace) (AllocStats, error) {
	var stats AllocStats
	shapes := map[uint64]*heap.Shape{}
	// live is indexed by allocation order; a freed slot goes nil. The
	// slice (not a map) keeps root enumeration deterministic, which the
	// memoizing runner depends on (-j1 and -jN must be byte-identical).
	var live []*heap.Obj
	h.AddRoots(heap.RootFunc(func(visit func(*heap.Obj)) {
		for _, o := range live {
			if o != nil {
				visit(o)
			}
		}
	}))
	shapeFor := func(id, nFields uint64) *heap.Shape {
		s, ok := shapes[id]
		if !ok {
			s = h.NewShape(fmt.Sprintf("trace.shape%d", id), int(nFields))
			shapes[id] = s
		}
		return s
	}
	err := t.WalkEvents(func(e Event) error {
		if e.Kind < uint64(len(replayArgs)) && len(e.Args) < replayArgs[e.Kind] {
			return fmt.Errorf("%w: %s event with %d arguments, replay needs %d",
				ErrCorrupt, t.SchemaName(e.Kind), len(e.Args), replayArgs[e.Kind])
		}
		switch e.Kind {
		case EvShape:
			shapeFor(e.Args[0], e.Args[1])
			stats.Shapes++
		case EvAlloc:
			shapeID, kind := e.Args[0], heap.AllocKind(e.Args[1])
			size, ok := allocSize(kind, e.Args[2], e.Args[3])
			if !ok || size != e.Args[4] {
				return fmt.Errorf("%w: alloc of kind %d with %d fields and payload %d recorded as %d bytes",
					ErrCorrupt, kind, e.Args[2], e.Args[3], e.Args[4])
			}
			nFields, payload := int(e.Args[2]), int(e.Args[3])
			var o *heap.Obj
			switch kind {
			case heap.AllocBytesKind:
				o = h.AllocBytes(shapeFor(shapeID, uint64(nFields)), payload)
			case heap.AllocElemsKind:
				o = h.AllocElems(shapeFor(shapeID, uint64(nFields)), nFields, payload)
			default:
				o = h.AllocObj(shapeFor(shapeID, uint64(nFields)), nFields)
			}
			live = append(live, o)
			stats.Allocs++
			stats.Bytes += o.Size()
		case EvFree:
			age := e.Args[0]
			idx := uint64(len(live))
			if age == 0 || age > idx {
				return fmt.Errorf("%w: free with age %d at allocation index %d",
					ErrCorrupt, age, idx)
			}
			if live[idx-age] != nil {
				live[idx-age] = nil
				stats.Frees++
			}
		default:
			stats.Skipped++
		}
		return nil
	})
	return stats, err
}

// CheckReplay is the one replay verifier. replayed — the recording made
// while re-driving recorded — must reproduce recorded's whole Summary
// (guest and heap checksums, instruction and cycle totals bit for bit,
// every per-phase counter, the GC statistics, the event count) and its
// event stream byte for byte. The error names the first field that
// diverged instead of dumping both summaries.
func CheckReplay(recorded, replayed *Trace) error {
	want, got := &recorded.Summary, &replayed.Summary
	if got.Checksum != want.Checksum {
		return fmt.Errorf("checksum %d, recorded %d", got.Checksum, want.Checksum)
	}
	if got.HeapChecksum != want.HeapChecksum {
		return fmt.Errorf("heap checksum %#x, recorded %#x", got.HeapChecksum, want.HeapChecksum)
	}
	if got.Instrs != want.Instrs {
		return fmt.Errorf("instrs %d, recorded %d", got.Instrs, want.Instrs)
	}
	if got.CyclesBits != want.CyclesBits {
		return fmt.Errorf("cycles %v, recorded %v (bit-exact comparison)", got.Cycles(), want.Cycles())
	}
	if len(got.Phases) != len(want.Phases) {
		return fmt.Errorf("%d phases, recorded %d", len(got.Phases), len(want.Phases))
	}
	for i := range want.Phases {
		if got.Phases[i] != want.Phases[i] {
			return fmt.Errorf("phase %d counters {instrs %d, cycles %v}, recorded {%d, %v}",
				i, got.Phases[i].Instrs, got.Phases[i].CyclesBits,
				want.Phases[i].Instrs, want.Phases[i].CyclesBits)
		}
	}
	if got.GC != want.GC {
		return fmt.Errorf("gc stats %+v, recorded %+v", got.GC, want.GC)
	}
	if got.Events != want.Events {
		return fmt.Errorf("%d events, recorded %d", got.Events, want.Events)
	}
	if !bytes.Equal(replayed.EventData, recorded.EventData) {
		return fmt.Errorf("event stream differs (%d bytes, recorded %d)",
			len(replayed.EventData), len(recorded.EventData))
	}
	return nil
}
