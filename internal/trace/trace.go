// Package trace implements the recorded-workload subsystem: a
// versioned, self-describing binary trace format for guest-program and
// heap events, a Recorder that captures them from any harness run, and
// replayers that reconstruct runnable workloads from a trace file.
//
// A trace is the workload analog of the exemplar loaders in related
// work (OpenDC's ComputeWorkloadLoader for VM traces, allocbench's
// dj_trace replaying real malloc traces): once recorded, a workload is
// a first-class, reproducible benchmark input. Two replay modes exist:
//
//   - guest re-drive: the trace embeds the guest program and the exact
//     VM/heap configuration, so the harness re-executes it through the
//     interpreter and JIT tiers; the trace's Summary (result checksum,
//     heap checksum, per-phase counters) is the recorded ground truth a
//     replay must reproduce bit-exactly (difftest.CheckReplay).
//   - allocation replay: the recorded allocation/free event stream is
//     applied directly to a fresh heap (ReplayAllocs), driving the
//     generational collector with the recorded object demography
//     without executing any guest code — the dj_trace idea.
//
// Wire format (all integers unsigned varints unless noted):
//
//	magic "MTJT" | version | guest | name | vm | seed | source |
//	config (thresholds, heap geometry) |
//	schema (count, then {kind, name, nargs} per event definition) |
//	event section (byte length, then events: kind + nargs args each) |
//	summary (checksums, totals, per-phase counters, GC stats) |
//	crc32 (IEEE, 4 bytes LE, over everything before it)
//
// The schema makes the event section self-describing: a decoder skips
// event kinds it does not know by their declared arg count, so new
// event kinds are backward compatible within a version. Encoding is
// canonical (minimal varints, fixed field order), so encode→decode→
// encode is byte-identical — FuzzTraceDecode and the round-trip
// property tests pin this.
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"metajit/internal/core"
	"metajit/internal/cpu"
)

// FormatVersion is the current wire-format version. Decoders reject
// traces with a different version: the format is versioned precisely so
// that incompatible changes bump this constant instead of silently
// misreading old fixtures (see EXPERIMENTS.md, "Recorded workloads").
// Version 2 added the tier-2 method-compiler fields (MethodThreshold,
// Adaptive) to the config snapshot.
const FormatVersion = 2

// Magic identifies a trace file.
const Magic = "MTJT"

// Guest kinds stored in Header.Guest.
const (
	GuestPy = "py" // pylang source (Python-guest)
	GuestSk = "sk" // sklang source (Scheme-guest)
)

// Built-in event kinds of FormatVersion 1. A trace's Schema declares
// the kinds it actually uses; these constants name the canonical set.
const (
	// EvShape declares an object layout before its first allocation:
	// {shape ID, fixed-field count}.
	EvShape = 1
	// EvAlloc is one object allocation:
	// {shape ID, alloc kind (heap.AllocKind), nFields, nPayload, size}.
	// nPayload is the element count (elems kind) or byte length (bytes
	// kind); size is the accounted size in simulated bytes.
	EvAlloc = 2
	// EvFree marks an object found dead by the collector:
	// {age} — the distance in allocation-index units back from the
	// next allocation index to the dying object's allocation.
	EvFree = 3
	// EvAnnot is one cross-layer annotation (any tag but dispatch):
	// {tag, arg, instrDelta} — instrDelta is retired instructions since
	// the previous annotation-stream event.
	EvAnnot = 4
	// EvDispatch is a run-length-compressed run of interpreter dispatch
	// ticks: {ticks, bytecodes, instrDelta}. Dispatch is the one
	// per-bytecode annotation; recording it tick-by-tick would dwarf
	// every other event combined.
	EvDispatch = 5
)

// EventDef is one schema entry: an event kind, its human-readable
// name, and how many varint arguments each occurrence carries.
type EventDef struct {
	Kind  uint64
	Name  string
	NArgs uint64
}

// DefaultSchema returns the canonical FormatVersion-1 event schema.
func DefaultSchema() []EventDef {
	return []EventDef{
		{Kind: EvShape, Name: "shape", NArgs: 2},
		{Kind: EvAlloc, Name: "alloc", NArgs: 5},
		{Kind: EvFree, Name: "free", NArgs: 1},
		{Kind: EvAnnot, Name: "annot", NArgs: 3},
		{Kind: EvDispatch, Name: "dispatch", NArgs: 3},
	}
}

// ConfigSnapshot pins the VM and heap configuration a trace was
// recorded under, so a replay reconstructs the exact same run. Heap
// growth is stored as float bits to round-trip exactly.
type ConfigSnapshot struct {
	Threshold         int64
	BridgeThreshold   int64
	BaselineThreshold int64
	MethodThreshold   int64
	Adaptive          bool
	NurserySize       uint64
	MajorThreshold    uint64
	MajorGrowthBits   uint64
}

// MajorGrowth returns the heap growth factor.
func (c ConfigSnapshot) MajorGrowth() float64 { return math.Float64frombits(c.MajorGrowthBits) }

// Header is the trace's self-description: identity, the embedded guest
// program, the recording configuration, and the event schema.
type Header struct {
	Version uint64
	Guest   string // GuestPy or GuestSk
	Name    string // benchmark name the trace was recorded from
	VM      string // harness.VMKind the trace was recorded on
	Seed    uint64 // reserved for seeded workload generators
	Source  string // the guest program, verbatim
	Config  ConfigSnapshot
	Schema  []EventDef
}

// PhaseSum is one phase's recorded totals. Cycles are stored as float
// bits so replay comparison is exact, not epsilon-based.
type PhaseSum struct {
	Instrs     uint64
	CyclesBits uint64
}

// GCSum is the recorded collector statistics (heap.Stats projection).
type GCSum struct {
	Minor         uint64
	Major         uint64
	AllocObjects  uint64
	AllocBytes    uint64
	PromotedBytes uint64
	Skipped       uint64
}

// Summary is the recorded run's ground truth: everything a replay must
// reproduce. Checksum is the guest result (int64), HeapChecksum the
// structural hash of the final guest-visible heap.
type Summary struct {
	Checksum     int64
	HeapChecksum uint64
	Instrs       uint64
	CyclesBits   uint64
	Phases       []PhaseSum // one per core.Phase, in phase order
	GC           GCSum
	Events       uint64 // event count in the event section
}

// Cycles returns the recorded total cycle count.
func (s *Summary) Cycles() float64 { return math.Float64frombits(s.CyclesBits) }

// check refuses a summary whose totals are not the sums of its phases:
// instructions exactly, and cycles in the machine's whole units, in which
// the machine keeps both.
func (s *Summary) check() error {
	var instrs, units uint64
	for _, p := range s.Phases {
		instrs += p.Instrs
		units += cpu.Units(math.Float64frombits(p.CyclesBits))
	}
	if instrs != s.Instrs {
		return fmt.Errorf("%w: phase instructions sum to %d, summary says %d", ErrCorrupt, instrs, s.Instrs)
	}
	if total := cpu.Units(s.Cycles()); units != total {
		return fmt.Errorf("%w: phase cycles sum to %d units, summary says %d", ErrCorrupt, units, total)
	}
	return nil
}

// Trace is one decoded (or freshly recorded) trace. EventData holds
// the canonical encoded event section; Events decodes it on demand so
// multi-megabyte recordings are not exploded into slices unless asked.
type Trace struct {
	Header    Header
	Summary   Summary
	EventData []byte

	hash string // memoized content hash of the canonical encoding
}

// Event is one decoded event occurrence.
type Event struct {
	Kind uint64
	Args []uint64
}

// Decode-time sanity bounds. They exist so a fuzzer-supplied header
// cannot make the decoder allocate absurd amounts before the CRC check
// would have rejected the input anyway.
const (
	maxMetaString = 1 << 16 // name/vm/guest strings
	maxSource     = 4 << 20 // embedded guest program
	maxSchema     = 256     // schema entries
	maxEventArgs  = 16      // args per event definition
	maxEventData  = 256 << 20
	maxPhases     = 64
)

var (
	// ErrMagic reports input that is not a trace at all.
	ErrMagic = errors.New("trace: bad magic")
	// ErrVersion reports a trace from an incompatible format version.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrTruncated reports input that ends mid-field.
	ErrTruncated = errors.New("trace: truncated")
	// ErrCorrupt reports structurally invalid input (bad lengths,
	// unknown event kinds, CRC mismatch, trailing garbage).
	ErrCorrupt = errors.New("trace: corrupt")
)

// appendUvarint appends x as a minimal varint.
func appendUvarint(b []byte, x uint64) []byte {
	return binary.AppendUvarint(b, x)
}

// appendString appends a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// zigzag maps signed to unsigned for varint encoding.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encode renders the trace in canonical form.
func (t *Trace) Encode() []byte {
	h := &t.Header
	b := make([]byte, 0, 256+len(h.Source)+len(t.EventData))
	b = append(b, Magic...)
	b = appendUvarint(b, h.Version)
	b = appendString(b, h.Guest)
	b = appendString(b, h.Name)
	b = appendString(b, h.VM)
	b = appendUvarint(b, h.Seed)
	b = appendString(b, h.Source)
	b = appendUvarint(b, zigzag(h.Config.Threshold))
	b = appendUvarint(b, zigzag(h.Config.BridgeThreshold))
	b = appendUvarint(b, zigzag(h.Config.BaselineThreshold))
	b = appendUvarint(b, zigzag(h.Config.MethodThreshold))
	adaptive := uint64(0)
	if h.Config.Adaptive {
		adaptive = 1
	}
	b = appendUvarint(b, adaptive)
	b = appendUvarint(b, h.Config.NurserySize)
	b = appendUvarint(b, h.Config.MajorThreshold)
	b = appendUvarint(b, h.Config.MajorGrowthBits)
	b = appendUvarint(b, uint64(len(h.Schema)))
	for _, d := range h.Schema {
		b = appendUvarint(b, d.Kind)
		b = appendString(b, d.Name)
		b = appendUvarint(b, d.NArgs)
	}
	b = appendUvarint(b, uint64(len(t.EventData)))
	b = append(b, t.EventData...)
	s := &t.Summary
	b = appendUvarint(b, zigzag(s.Checksum))
	b = appendUvarint(b, s.HeapChecksum)
	b = appendUvarint(b, s.Instrs)
	b = appendUvarint(b, s.CyclesBits)
	b = appendUvarint(b, uint64(len(s.Phases)))
	for _, p := range s.Phases {
		b = appendUvarint(b, p.Instrs)
		b = appendUvarint(b, p.CyclesBits)
	}
	b = appendUvarint(b, s.GC.Minor)
	b = appendUvarint(b, s.GC.Major)
	b = appendUvarint(b, s.GC.AllocObjects)
	b = appendUvarint(b, s.GC.AllocBytes)
	b = appendUvarint(b, s.GC.PromotedBytes)
	b = appendUvarint(b, s.GC.Skipped)
	b = appendUvarint(b, s.Events)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b))
	return append(b, crc[:]...)
}

// Hash returns the trace's content identity: the hex SHA-256 of its
// canonical encoding. The harness memo key uses this — not a file path
// — so two copies of the same recording share a cell and two different
// recordings never collide.
func (t *Trace) Hash() string {
	if t.hash == "" {
		sum := sha256.Sum256(t.Encode())
		t.hash = hex.EncodeToString(sum[:])
	}
	return t.hash
}

// decoder is a bounds-checked reader over the encoded bytes.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: varint overflow at %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) str(limit int) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(limit) {
		return "", fmt.Errorf("%w: string length %d exceeds %d", ErrCorrupt, n, limit)
	}
	if d.off+int(n) > len(d.b) {
		return "", ErrTruncated
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Decode parses an encoded trace. It never panics on arbitrary input:
// malformed bytes yield ErrMagic, ErrVersion, ErrTruncated, or
// ErrCorrupt. The event section is fully validated against the schema
// (every event walked, count checked against the summary).
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(Magic)+4 || string(data[:len(Magic)]) != Magic {
		return nil, ErrMagic
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	d := &decoder{b: body, off: len(Magic)}
	t := &Trace{}
	h := &t.Header
	var err error
	if h.Version, err = d.uvarint(); err != nil {
		return nil, err
	}
	if h.Version != FormatVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, h.Version, FormatVersion)
	}
	if h.Guest, err = d.str(maxMetaString); err != nil {
		return nil, err
	}
	if h.Name, err = d.str(maxMetaString); err != nil {
		return nil, err
	}
	if h.VM, err = d.str(maxMetaString); err != nil {
		return nil, err
	}
	if h.Seed, err = d.uvarint(); err != nil {
		return nil, err
	}
	if h.Source, err = d.str(maxSource); err != nil {
		return nil, err
	}
	var u uint64
	if u, err = d.uvarint(); err != nil {
		return nil, err
	}
	h.Config.Threshold = unzigzag(u)
	if u, err = d.uvarint(); err != nil {
		return nil, err
	}
	h.Config.BridgeThreshold = unzigzag(u)
	if u, err = d.uvarint(); err != nil {
		return nil, err
	}
	h.Config.BaselineThreshold = unzigzag(u)
	if u, err = d.uvarint(); err != nil {
		return nil, err
	}
	h.Config.MethodThreshold = unzigzag(u)
	if u, err = d.uvarint(); err != nil {
		return nil, err
	}
	if u > 1 {
		return nil, fmt.Errorf("%w: adaptive flag %d", ErrCorrupt, u)
	}
	h.Config.Adaptive = u == 1
	if h.Config.NurserySize, err = d.uvarint(); err != nil {
		return nil, err
	}
	if h.Config.MajorThreshold, err = d.uvarint(); err != nil {
		return nil, err
	}
	if h.Config.MajorGrowthBits, err = d.uvarint(); err != nil {
		return nil, err
	}
	nSchema, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nSchema > maxSchema {
		return nil, fmt.Errorf("%w: %d schema entries", ErrCorrupt, nSchema)
	}
	h.Schema = make([]EventDef, nSchema)
	for i := range h.Schema {
		if h.Schema[i].Kind, err = d.uvarint(); err != nil {
			return nil, err
		}
		if h.Schema[i].Name, err = d.str(maxMetaString); err != nil {
			return nil, err
		}
		if h.Schema[i].NArgs, err = d.uvarint(); err != nil {
			return nil, err
		}
		if h.Schema[i].NArgs > maxEventArgs {
			return nil, fmt.Errorf("%w: event %q declares %d args", ErrCorrupt,
				h.Schema[i].Name, h.Schema[i].NArgs)
		}
	}
	evLen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if evLen > maxEventData || d.off+int(evLen) > len(d.b) {
		return nil, fmt.Errorf("%w: event section length %d", ErrCorrupt, evLen)
	}
	t.EventData = body[d.off : d.off+int(evLen)]
	d.off += int(evLen)
	s := &t.Summary
	if u, err = d.uvarint(); err != nil {
		return nil, err
	}
	s.Checksum = unzigzag(u)
	if s.HeapChecksum, err = d.uvarint(); err != nil {
		return nil, err
	}
	if s.Instrs, err = d.uvarint(); err != nil {
		return nil, err
	}
	if s.CyclesBits, err = d.uvarint(); err != nil {
		return nil, err
	}
	nPhases, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if nPhases > maxPhases {
		return nil, fmt.Errorf("%w: %d phases", ErrCorrupt, nPhases)
	}
	s.Phases = make([]PhaseSum, nPhases)
	for i := range s.Phases {
		if s.Phases[i].Instrs, err = d.uvarint(); err != nil {
			return nil, err
		}
		if s.Phases[i].CyclesBits, err = d.uvarint(); err != nil {
			return nil, err
		}
	}
	for _, dst := range []*uint64{&s.GC.Minor, &s.GC.Major, &s.GC.AllocObjects,
		&s.GC.AllocBytes, &s.GC.PromotedBytes, &s.GC.Skipped, &s.Events} {
		if *dst, err = d.uvarint(); err != nil {
			return nil, err
		}
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-d.off)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	// Validate the event section in full: every event must carry a kind
	// declared in the schema, and the walk must land exactly on the
	// summary's event count.
	n, err := t.walkEvents(nil)
	if err != nil {
		return nil, err
	}
	if n != s.Events {
		return nil, fmt.Errorf("%w: event section holds %d events, summary says %d",
			ErrCorrupt, n, s.Events)
	}
	return t, nil
}

// walkEvents iterates the event section, calling visit (when non-nil)
// with each decoded event. The Args slice is reused across calls.
func (t *Trace) walkEvents(visit func(Event) error) (uint64, error) {
	nargs := map[uint64]uint64{}
	for _, def := range t.Header.Schema {
		nargs[def.Kind] = def.NArgs
	}
	d := &decoder{b: t.EventData}
	args := make([]uint64, 0, maxEventArgs)
	var n uint64
	for d.off < len(d.b) {
		kind, err := d.uvarint()
		if err != nil {
			return n, err
		}
		na, ok := nargs[kind]
		if !ok {
			return n, fmt.Errorf("%w: event kind %d not in schema", ErrCorrupt, kind)
		}
		args = args[:0]
		for i := uint64(0); i < na; i++ {
			a, err := d.uvarint()
			if err != nil {
				return n, err
			}
			args = append(args, a)
		}
		n++
		if visit != nil {
			if err := visit(Event{Kind: kind, Args: args}); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// WalkEvents iterates the event section in order. The visit callback's
// Event.Args slice is only valid during the call.
func (t *Trace) WalkEvents(visit func(Event) error) error {
	_, err := t.walkEvents(visit)
	return err
}

// Events decodes the whole event section into a slice. Prefer
// WalkEvents for large traces.
func (t *Trace) Events() ([]Event, error) {
	out := make([]Event, 0, t.Summary.Events)
	err := t.WalkEvents(func(e Event) error {
		out = append(out, Event{Kind: e.Kind, Args: append([]uint64(nil), e.Args...)})
		return nil
	})
	return out, err
}

// SchemaName returns the declared name for an event kind, or "ev<N>".
func (t *Trace) SchemaName(kind uint64) string {
	for _, d := range t.Header.Schema {
		if d.Kind == kind {
			return d.Name
		}
	}
	return fmt.Sprintf("ev<%d>", kind)
}

// NumPhasesNow is the phase-vector length recorded by the current
// build; decoded traces may carry fewer (older recordings) or more.
var NumPhasesNow = int(core.NumPhases)
