package cluster

import (
	"bytes"
	"crypto/sha256"
	"math"
	"reflect"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// sampleResult builds a WireResult with every field class populated:
// negative ints, float bit patterns that JSON or naive formatting would
// mangle, and non-zero array entries deep in the phase counters.
func sampleResult() *WireResult {
	w := &WireResult{
		Bench:        "telco",
		VM:           "pypy-tiered",
		Checksum:     -987654321,
		Instrs:       123456789,
		Cycles:       1234567.000000125, // not representable in float32
		Bytecodes:    424242,
		HeapChecksum: 0xdeadbeefcafef00d,
	}
	w.GC.Minor = 17
	w.GC.AllocBytes = 1 << 40
	w.Total.Instrs = 123456789
	w.Total.Cycles = math.Nextafter(1234567, 1234568)
	w.Phases[2].L1Miss = 999
	w.Phases[2].ClassCounts[1] = 7
	w.Eng.LoopsCompiled = 3
	w.Eng.GuardFailures = 1973
	return w
}

func TestWireRoundTrip(t *testing.T) {
	w := sampleResult()
	enc := w.Encode()
	got, err := DecodeResult(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(w, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, w)
	}
	// Byte equality of encodings ⇔ value equality: re-encoding the
	// decoded value must reproduce the exact bytes.
	if !bytes.Equal(enc, got.Encode()) {
		t.Fatal("re-encoding the decoded result changed bytes")
	}
}

func TestWireEncodeDeterministic(t *testing.T) {
	a, b := sampleResult().Encode(), sampleResult().Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of equal values differ")
	}
	mut := sampleResult()
	mut.Cycles = math.Nextafter(mut.Cycles, 0) // one ulp
	if bytes.Equal(a, mut.Encode()) {
		t.Fatal("one-ulp cycle change did not change the encoding")
	}
}

func TestWireDecodeRejectsDamage(t *testing.T) {
	enc := sampleResult().Encode()
	cases := map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{99}, enc[1:]...),
		"truncated":   enc[:len(enc)/2],
		"trailing":    append(append([]byte(nil), enc...), 0),
	}
	for name, b := range cases {
		if _, err := DecodeResult(b); err == nil {
			t.Errorf("%s: decode accepted damaged blob", name)
		}
	}
}

// TestCellKeyCanonicalizable walks a fully populated harness.Spec
// through the canonical encoder. If a future PR adds a field of a kind
// the encoder does not support (map, pointer...), canonicalAppend
// panics and this test fails at the source of the problem rather than
// in a cluster integration test.
func TestCellKeyCanonicalizable(t *testing.T) {
	p := bench.ByName("telco")
	if p == nil {
		t.Fatal("telco missing")
	}
	key := harness.Key(p, harness.VMPyPyTiered, harness.Options{
		Threshold:       7,
		BridgeThreshold: 3,
		SampleInterval:  1000,
	})
	b1 := canonicalAppend(nil, reflect.ValueOf(key))
	b2 := canonicalAppend(nil, reflect.ValueOf(key))
	if !bytes.Equal(b1, b2) {
		t.Fatal("Spec canonical encoding is not deterministic")
	}
	if IDOf(key) == (CellID{}) {
		t.Fatal("zero CellID")
	}
}

// TestIDOfVersioned pins how the identity is built: the hashed stream is
// specVersion, then the Spec's canonical bytes. The version is never
// zero and the canonical bytes always start with zero — the high byte of
// Bench's 8-byte length, Spec's first field — so no versioned address
// can equal an unversioned one, whatever the fields were then.
func TestIDOfVersioned(t *testing.T) {
	spec := harness.Key(bench.ByName("telco"), harness.VMPyPyJIT, harness.Options{})
	canon := canonicalAppend(nil, reflect.ValueOf(spec))
	if specVersion == 0 || canon[0] != 0 {
		t.Fatalf("specVersion %d must be non-zero and the canonical Spec must open with a zero byte, got %#x", specVersion, canon[0])
	}
	if IDOf(spec) != sha256.Sum256(append([]byte{specVersion}, canon...)) {
		t.Fatal("IDOf is not SHA-256(specVersion || canonical Spec)")
	}
	if IDOf(spec) == sha256.Sum256(canon) {
		t.Fatal("the version byte does not enter the hash")
	}
}

// TestCellIDDistinguishesCells pins that the content address reacts to
// each request knob on a kind that simulates it: two cells differing in
// any option a Request can set must never share an address (an address
// collision would serve one cell's result for another — the worst
// possible cluster bug). A knob the kind does not simulate is one cell
// (harness TestSpecResolvesDefaults), so the baseline threshold is
// varied on pypy-tiered.
func TestCellIDDistinguishesCells(t *testing.T) {
	p := bench.ByName("telco")
	base := func() harness.Options { return harness.Options{} }
	ids := map[CellID]string{}
	add := func(name string, kind harness.VMKind, opt harness.Options) {
		id := IDOf(harness.Key(p, kind, opt))
		if prev, dup := ids[id]; dup {
			t.Fatalf("cells %s and %s share CellID %s", prev, name, id.Short())
		}
		ids[id] = name
	}
	add("default", harness.VMPyPyJIT, base())
	add("tiered", harness.VMPyPyTiered, base())
	o := base()
	o.Threshold = 100
	add("threshold", harness.VMPyPyJIT, o)
	o = base()
	o.BridgeThreshold = 5
	add("bridge", harness.VMPyPyJIT, o)
	o = base()
	o.BaselineThreshold = 50
	add("baseline", harness.VMPyPyTiered, o)
	q := bench.ByName("chaos")
	id := IDOf(harness.Key(q, harness.VMPyPyJIT, base()))
	if _, dup := ids[id]; dup {
		t.Fatal("different benchmarks share a CellID")
	}
}
