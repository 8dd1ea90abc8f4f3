package aot

import (
	"strings"
	"testing"
	"testing/quick"

	"metajit/internal/heap"
)

func TestStrHashCached(t *testing.T) {
	rt, s := testRuntime()
	str := rt.NewStr([]byte("some moderately long string for hashing"))
	h1 := rt.StrHash(str)
	cost1 := s.TotalInstrs()
	h2 := rt.StrHash(str)
	cost2 := s.TotalInstrs() - cost1
	if h1 != h2 {
		t.Fatalf("hash not stable: %d vs %d", h1, h2)
	}
	if cost2 >= cost1 {
		t.Errorf("second hash (%d instrs) should be cheaper than first (cached)", cost2)
	}
	other := rt.NewStr([]byte("a different string"))
	if rt.StrHash(other) == h1 {
		t.Errorf("different strings collide (possible but suspicious for these)")
	}
}

func TestStrConcatJoin(t *testing.T) {
	rt, _ := testRuntime()
	a := rt.NewStr([]byte("foo"))
	b := rt.NewStr([]byte("bar"))
	if got := string(rt.StrConcat(a, b).Bytes); got != "foobar" {
		t.Fatalf("concat = %q", got)
	}
	sep := rt.NewStr([]byte(", "))
	parts := []heap.Value{heap.RefVal(a), heap.RefVal(b), heap.RefVal(rt.NewStr([]byte("baz")))}
	if got := string(rt.StrJoin(sep, parts).Bytes); got != "foo, bar, baz" {
		t.Fatalf("join = %q", got)
	}
	if got := string(rt.StrJoin(sep, nil).Bytes); got != "" {
		t.Fatalf("empty join = %q", got)
	}
}

func TestStrFindAndReplace(t *testing.T) {
	rt, _ := testRuntime()
	s := rt.NewStr([]byte("hello world, hello moon"))
	if i := rt.StrFindChar(s, 'w', 0); i != 6 {
		t.Errorf("FindChar w = %d", i)
	}
	if i := rt.StrFindChar(s, 'z', 0); i != -1 {
		t.Errorf("FindChar z = %d", i)
	}
	if i := rt.StrFindChar(s, 'h', 1); i != 13 {
		t.Errorf("FindChar h from 1 = %d", i)
	}
	needle := rt.NewStr([]byte("hello"))
	if i := rt.StrFind(s, needle, 0); i != 0 {
		t.Errorf("Find hello = %d", i)
	}
	if i := rt.StrFind(s, needle, 1); i != 13 {
		t.Errorf("Find hello from 1 = %d", i)
	}
	got := rt.StrReplace(s, needle, rt.NewStr([]byte("bye")))
	if string(got.Bytes) != "bye world, bye moon" {
		t.Errorf("Replace = %q", got.Bytes)
	}
}

func TestStrSplitChar(t *testing.T) {
	rt, _ := testRuntime()
	s := rt.NewStr([]byte("a,bb,,ccc"))
	parts := rt.StrSplitChar(s, ',')
	want := []string{"a", "bb", "", "ccc"}
	if len(parts) != len(want) {
		t.Fatalf("split into %d parts", len(parts))
	}
	for i := range want {
		if string(parts[i].Bytes) != want[i] {
			t.Errorf("part %d = %q, want %q", i, parts[i].Bytes, want[i])
		}
	}
}

func TestIntConversionsRoundTrip(t *testing.T) {
	rt, _ := testRuntime()
	f := func(v int64) bool {
		s := rt.Int2Dec(v)
		back, ok := rt.StrToInt(s)
		return ok && back == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.StrToInt(rt.NewStr([]byte("xyz"))); ok {
		t.Errorf("parsed garbage")
	}
}

func TestTranslateAndEscape(t *testing.T) {
	rt, _ := testRuntime()
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	table['a'] = 'A'
	got := rt.Translate(rt.NewStr([]byte("banana")), table)
	if string(got.Bytes) != "bAnAnA" {
		t.Errorf("Translate = %q", got.Bytes)
	}
	esc := rt.JSONEscape(rt.NewStr([]byte("a\"b\\c\nd")))
	if string(esc.Bytes) != `"a\"b\\c\nd"` {
		t.Errorf("JSONEscape = %q", esc.Bytes)
	}
	enc := rt.EncodeASCII(rt.NewStr([]byte("plain")))
	if string(enc.Bytes) != "plain" {
		t.Errorf("EncodeASCII = %q", enc.Bytes)
	}
}

func TestBuilder(t *testing.T) {
	rt, _ := testRuntime()
	b := rt.NewBuilder()
	var want strings.Builder
	for i := 0; i < 50; i++ {
		piece := strings.Repeat("x", i%7+1)
		rt.BuilderAppend(b, rt.NewStr([]byte(piece)))
		want.WriteString(piece)
	}
	if b.BuilderLen() != want.Len() {
		t.Fatalf("BuilderLen = %d, want %d", b.BuilderLen(), want.Len())
	}
	got := rt.BuilderBuild(b)
	if string(got.Bytes) != want.String() {
		t.Fatalf("Build mismatch: %d vs %d bytes", len(got.Bytes), want.Len())
	}
}

func TestListOps(t *testing.T) {
	rt, _ := testRuntime()
	list := rt.H.AllocElems(rt.ListShape, 0, 5)
	for i := 0; i < 5; i++ {
		rt.H.WriteElem(list, i, heap.IntVal(int64(i)))
	}
	// dst[1:3] = [10, 11, 12]
	rt.ListSetSlice(list, 1, 3, []heap.Value{heap.IntVal(10), heap.IntVal(11), heap.IntVal(12)})
	want := []int64{0, 10, 11, 12, 3, 4}
	if len(list.Elems) != len(want) {
		t.Fatalf("len after setslice = %d, want %d", len(list.Elems), len(want))
	}
	for i, w := range want {
		if list.Elems[i].I != w {
			t.Fatalf("elem %d = %v, want %d (full: %v)", i, list.Elems[i], w, list.Elems)
		}
	}
	if idx := rt.ListFind(list, heap.IntVal(12)); idx != 3 {
		t.Errorf("ListFind = %d", idx)
	}
	if idx := rt.ListFind(list, heap.IntVal(99)); idx != -1 {
		t.Errorf("ListFind missing = %d", idx)
	}
	sl := rt.ListSlice(rt.ListShape, list, 1, 4)
	if len(sl.Elems) != 3 || sl.Elems[0].I != 10 || sl.Elems[2].I != 12 {
		t.Errorf("ListSlice = %v", sl.Elems)
	}
}

func TestSetOps(t *testing.T) {
	rt, _ := testRuntime()
	a := rt.NewDict()
	b := rt.NewDict()
	for i := 0; i < 10; i++ {
		rt.DictSet(a, heap.IntVal(int64(i)), heap.True)
	}
	for i := 5; i < 15; i++ {
		rt.DictSet(b, heap.IntVal(int64(i)), heap.True)
	}
	diff := rt.SetDifference(a, b)
	if diff.Len() != 5 {
		t.Fatalf("difference size = %d", diff.Len())
	}
	for i := 0; i < 5; i++ {
		if _, ok := rt.DictGet(diff, heap.IntVal(int64(i))); !ok {
			t.Errorf("diff missing %d", i)
		}
	}
	if rt.SetIsSubset(a, b) {
		t.Errorf("a should not be subset of b")
	}
	if !rt.SetIsSubset(diff, a) {
		t.Errorf("a-b should be subset of a")
	}
	u := rt.SetUnion(a, b)
	if u.Len() != 15 {
		t.Errorf("union size = %d", u.Len())
	}
}

func TestRuntimeRegistry(t *testing.T) {
	rt, _ := testRuntime()
	f1 := rt.Register("rordereddict.ll_call_lookup_function", SrcIntrinsic)
	f2 := rt.Register("rordereddict.ll_call_lookup_function", SrcIntrinsic)
	if f1 != f2 {
		t.Fatalf("re-registration made a new Func")
	}
	f3 := rt.Register("rbigint.add", SrcStdlib)
	if f3.ID == f1.ID {
		t.Fatalf("IDs collide")
	}
	if rt.Lookup("rbigint.add") != f3 || rt.ByID(f3.ID) != f3 {
		t.Fatalf("lookup failed")
	}
	if rt.ByID(0) != nil || rt.ByID(999) != nil {
		t.Fatalf("out-of-range ByID should be nil")
	}
	if f1.Src.String() != "R" {
		t.Fatalf("source letter = %q", f1.Src.String())
	}
	if len(rt.Funcs()) != 2 {
		t.Fatalf("Funcs() = %d entries", len(rt.Funcs()))
	}
}

func TestCMathHelpers(t *testing.T) {
	rt, _ := testRuntime()
	if got := rt.CPow(2, 10); got != 1024 {
		t.Errorf("CPow = %v", got)
	}
	if got := rt.CSqrt(144); got != 12 {
		t.Errorf("CSqrt = %v", got)
	}
	rt.CMemcpy(1024) // must not panic; cost only
}

func TestBigintWrappersMatchPure(t *testing.T) {
	rt, s := testRuntime()
	a := BigFromInt64(1 << 40)
	b := BigFromInt64(12345)
	if rt.BigintAdd(a, b).Cmp(BigAdd(a, b)) != 0 {
		t.Errorf("BigintAdd mismatch")
	}
	if rt.BigintMul(a, b).Cmp(BigMul(a, b)) != 0 {
		t.Errorf("BigintMul mismatch")
	}
	q1, r1 := rt.BigintDivMod(a, b)
	q2, r2 := BigDivMod(a, b)
	if q1.Cmp(q2) != 0 || r1.Cmp(r2) != 0 {
		t.Errorf("BigintDivMod mismatch")
	}
	if rt.BigintLsh(a, 33).Cmp(BigLsh(a, 33)) != 0 {
		t.Errorf("BigintLsh mismatch")
	}
	if rt.BigintRsh(a, 7).Cmp(BigRsh(a, 7)) != 0 {
		t.Errorf("BigintRsh mismatch")
	}
	if string(rt.BigintStr(a).Bytes) != a.String() {
		t.Errorf("BigintStr mismatch")
	}
	if s.TotalInstrs() == 0 {
		t.Errorf("bigint wrappers emitted no cost")
	}
}

// TestStringBytesAliasing: a guest string owns its bytes. What a caller
// passed to NewStr may be scribbled afterwards, and two strings built back
// to back in the runtime's scratch (StrReplace, JSONEscape) share nothing
// with it or with each other.
func TestStringBytesAliasing(t *testing.T) {
	rt, _ := testRuntime()
	buf := []byte("abc")
	s := rt.NewStr(buf)
	copy(buf, "XYZ")
	if string(s.Bytes) != "abc" {
		t.Fatalf("NewStr kept its argument: %q after the caller overwrote it", s.Bytes)
	}

	x, y := rt.NewStr([]byte("x")), rt.NewStr([]byte("yy"))
	first := rt.StrReplace(rt.NewStr([]byte("axbxc")), x, y)
	second := rt.JSONEscape(rt.NewStr([]byte("q\"q")))
	third := rt.StrReplace(rt.NewStr([]byte("xx")), x, y)
	scratch := rt.scratch[:cap(rt.scratch)]
	for i := range scratch {
		scratch[i] = 0xAA
	}
	for _, c := range []struct {
		got  *heap.Obj
		want string
	}{{first, "ayybyyc"}, {second, `"q\"q"`}, {third, "yyyy"}} {
		if string(c.got.Bytes) != c.want {
			t.Errorf("string built in the scratch reads %q, want %q", c.got.Bytes, c.want)
		}
	}
}
