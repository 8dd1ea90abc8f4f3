//go:build !race

package aot

import (
	"testing"

	"metajit/internal/heap"
)

// TestStringRuntimeDoesNotAllocatePayloadApart: every string the runtime
// makes from short inputs costs the host one allocation — the object, with
// the bytes written straight into it. A second one would be a temporary
// (a []byte built first and copied, a Go string on the way) coming back.
func TestStringRuntimeDoesNotAllocatePayloadApart(t *testing.T) {
	rt, _ := testRuntime()
	a, b := rt.NewStr([]byte("hello, ")), rt.NewStr([]byte("world"))
	sep := rt.NewStr([]byte(", "))
	parts := []heap.Value{heap.RefVal(a), heap.RefVal(b), heap.RefVal(a)}
	quoted := rt.NewStr([]byte("say \"hi\"\n"))
	o, l := rt.NewStr([]byte("o")), rt.NewStr([]byte("0o0"))
	var upper [256]byte
	for i := range upper {
		upper[i] = byte(i)
	}
	bld := rt.NewBuilder()
	rt.BuilderAppend(bld, a)
	rt.BuilderAppend(bld, b)

	var sink *heap.Obj
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"StrConcat", func() { sink = rt.StrConcat(a, b) }},
		{"StrJoin", func() { sink = rt.StrJoin(sep, parts) }},
		{"Int2Dec", func() { sink = rt.Int2Dec(-9223372036854775808) }},
		{"EncodeASCII", func() { sink = rt.EncodeASCII(a) }},
		{"Translate", func() { sink = rt.Translate(a, upper) }},
		{"StrReplace", func() { sink = rt.StrReplace(a, o, l) }},
		{"JSONEscape", func() { sink = rt.JSONEscape(quoted) }},
		{"BuilderBuild", func() { sink = rt.BuilderBuild(bld) }},
	} {
		// Warm up: the heap's nursery list and the runtime's scratch grow
		// to their high-water marks, which is not the string's cost.
		for i := 0; i < 1000; i++ {
			c.fn()
		}
		if got := testing.AllocsPerRun(200, c.fn); got != 1 {
			t.Errorf("%s: %v host allocations a call, want 1", c.name, got)
		}
	}
	_ = sink
}
