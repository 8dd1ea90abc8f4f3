package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/harness"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
)

// canonicalAppend serializes a value into a canonical, process- and
// architecture-independent byte string: struct fields in declaration
// order, integers as fixed 8-byte big-endian, floats as IEEE-754 bits
// (so two results differing in the last ulp differ in the encoding),
// strings and slices length-prefixed. No type information is written —
// the decoder walks the same struct shape — so identical values encode
// identically forever, which is what lets the SHA-256 of a Spec act
// as a stable content address and lets byte comparison of two encoded
// results stand in for deep equality.
//
// Only the kinds the cluster's types use are supported; an unsupported
// kind (map, pointer, interface...) panics at development time rather
// than silently producing an unstable encoding.
func canonicalAppend(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(buf, 1)
		}
		return append(buf, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.BigEndian.AppendUint64(buf, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.BigEndian.AppendUint64(buf, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		buf = binary.BigEndian.AppendUint64(buf, uint64(len(s)))
		return append(buf, s...)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = canonicalAppend(buf, v.Field(i))
		}
		return buf
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			buf = canonicalAppend(buf, v.Index(i))
		}
		return buf
	case reflect.Slice:
		buf = binary.BigEndian.AppendUint64(buf, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			buf = canonicalAppend(buf, v.Index(i))
		}
		return buf
	default:
		panic(fmt.Sprintf("cluster: canonical encoding of unsupported kind %s (%s)", v.Kind(), v.Type()))
	}
}

// canonicalRead is the inverse walk: it fills v from buf and returns
// the remaining bytes. Errors (never panics) on truncation or an
// oversized length prefix — the store's CRC catches nearly all
// corruption, but a blob that collides the checksum must still fail
// decoding cleanly.
func canonicalRead(buf []byte, v reflect.Value) ([]byte, error) {
	need := func(n int) error {
		if len(buf) < n {
			return fmt.Errorf("cluster: truncated canonical encoding (need %d bytes, have %d)", n, len(buf))
		}
		return nil
	}
	switch v.Kind() {
	case reflect.Bool:
		if err := need(1); err != nil {
			return nil, err
		}
		v.SetBool(buf[0] != 0)
		return buf[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if err := need(8); err != nil {
			return nil, err
		}
		v.SetInt(int64(binary.BigEndian.Uint64(buf)))
		return buf[8:], nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if err := need(8); err != nil {
			return nil, err
		}
		v.SetUint(binary.BigEndian.Uint64(buf))
		return buf[8:], nil
	case reflect.Float32, reflect.Float64:
		if err := need(8); err != nil {
			return nil, err
		}
		v.SetFloat(math.Float64frombits(binary.BigEndian.Uint64(buf)))
		return buf[8:], nil
	case reflect.String:
		if err := need(8); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint64(buf)
		buf = buf[8:]
		if n > uint64(len(buf)) {
			return nil, fmt.Errorf("cluster: canonical string length %d exceeds remaining %d bytes", n, len(buf))
		}
		v.SetString(string(buf[:n]))
		return buf[n:], nil
	case reflect.Struct:
		var err error
		for i := 0; i < v.NumField(); i++ {
			if buf, err = canonicalRead(buf, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Array:
		var err error
		for i := 0; i < v.Len(); i++ {
			if buf, err = canonicalRead(buf, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case reflect.Slice:
		if err := need(8); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint64(buf)
		buf = buf[8:]
		if n > uint64(len(buf)) { // every element is ≥ 1 byte
			return nil, fmt.Errorf("cluster: canonical slice length %d exceeds remaining %d bytes", n, len(buf))
		}
		s := reflect.MakeSlice(v.Type(), int(n), int(n))
		var err error
		for i := 0; i < int(n); i++ {
			if buf, err = canonicalRead(buf, s.Index(i)); err != nil {
				return nil, err
			}
		}
		v.Set(s)
		return buf, nil
	default:
		return nil, fmt.Errorf("cluster: canonical decoding of unsupported kind %s", v.Kind())
	}
}

// WireResult is the deterministic, serializable portion of a
// harness.Result: everything the single-process memoizer's answer pins
// down byte-for-byte. It deliberately excludes host-side artifacts
// (profilers, logs, wall-clock) — two runs of the same cell anywhere in
// the cluster must produce identical WireResults, which is exactly the
// chaos suite's invariant and what the content store persists.
type WireResult struct {
	Bench        string                       `json:"bench"`
	VM           string                       `json:"vm"`
	Checksum     int64                        `json:"checksum"`
	Instrs       uint64                       `json:"instrs"`
	Cycles       float64                      `json:"cycles"`
	Bytecodes    uint64                       `json:"bytecodes"`
	HeapChecksum uint64                       `json:"heap_checksum"`
	GC           heap.Stats                   `json:"gc"`
	Total        cpu.Counters                 `json:"total"`
	Phases       [core.NumPhases]cpu.Counters `json:"phases"`
	Eng          mtjit.EngineStats            `json:"eng"`
}

// FromResult projects a harness result onto the wire form.
func FromResult(res *harness.Result) *WireResult {
	return &WireResult{
		Bench:        res.Bench,
		VM:           string(res.VM),
		Checksum:     res.Checksum,
		Instrs:       res.Instrs,
		Cycles:       res.Cycles,
		Bytecodes:    res.Bytecodes,
		HeapChecksum: res.HeapChecksum,
		GC:           res.GC,
		Total:        res.Total,
		Phases:       res.Phases,
		Eng:          res.EngStats,
	}
}

// wireVersion tags the blob payload layout; bump when WireResult's
// shape changes so stale store blobs are rejected instead of
// mis-decoded (the store treats a version mismatch as a miss, not
// corruption — old blobs are simply superseded).
const wireVersion = 1

// Encode serializes the result canonically: a version byte followed by
// the canonical struct walk. Byte equality of encodings ⇔ value
// equality of results.
func (w *WireResult) Encode() []byte {
	buf := append(make([]byte, 0, 2048), wireVersion)
	return canonicalAppend(buf, reflect.ValueOf(*w))
}

// DecodeResult parses an Encode()d blob, rejecting version mismatches
// and trailing garbage.
func DecodeResult(b []byte) (*WireResult, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("cluster: empty result blob")
	}
	if b[0] != wireVersion {
		return nil, fmt.Errorf("cluster: result version %d, want %d", b[0], wireVersion)
	}
	var w WireResult
	rest, err := canonicalRead(b[1:], reflect.ValueOf(&w).Elem())
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after result", len(rest))
	}
	return &w, nil
}
