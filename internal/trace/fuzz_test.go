package trace

import (
	"bytes"
	"testing"

	"metajit/internal/cpu"
	"metajit/internal/heap"
)

// FuzzTraceDecode is the decoder's safety property: Decode never
// panics on arbitrary bytes, and anything it accepts must re-encode
// byte-identically (canonical form) and decode again to the same
// content hash, and ReplayAllocs over it never panics either. Seeds cover the empty input, bare magic, a valid
// recorded trace, and the mutation classes TestDecodeRejects pins;
// regressions found by fuzzing are pinned under
// testdata/fuzz/FuzzTraceDecode.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("MTJT\x01"))
	valid := genTrace(1).Encode()
	f.Add(valid)
	truncated := valid[:len(valid)/2]
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	// A version-2 header with a valid CRC: exercises the version gate.
	v2 := append([]byte(nil), valid...)
	v2[4] = FormatVersion + 1
	f.Add(v2)
	for _, tr := range hostileAllocTraces() {
		f.Add(tr.Encode())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		enc := tr.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted input is not canonical: re-encode differs (%d vs %d bytes)",
				len(enc), len(data))
		}
		tr2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if tr2.Hash() != tr.Hash() {
			t.Fatal("hash not stable across round trip")
		}
		// The event walk must agree with the summary (Decode validated
		// this) and never panic while visiting.
		if err := tr.WalkEvents(func(Event) error { return nil }); err != nil {
			t.Fatalf("walk of validated trace failed: %v", err)
		}
		// Replaying the allocations may fail but never panics. Kept to
		// traces that name little memory in total: ReplayAllocs bounds one
		// object, not their sum, and the fuzzer shares its machine.
		var named uint64
		tr.WalkEvents(func(e Event) error {
			if e.Kind == EvAlloc && len(e.Args) == 5 {
				named += min(e.Args[4], maxReplayObject)
			}
			return nil
		})
		if named <= maxReplayObject {
			ReplayAllocs(heap.New(cpu.New(cpu.DefaultParams()), heap.DefaultConfig()), tr)
		}
	})
}
