package aot

import (
	"strconv"

	"metajit/internal/heap"
	"metajit/internal/isa"
)

// String runtime functions: the rstr/runicode/rbuilder entry points of
// Table III. All operate on guest string objects (heap objects whose
// payload is Bytes) and emit per-byte work into the stream.

var (
	siteStrLoop     = isa.NewSite()
	siteFindLoop    = isa.NewSite()
	siteReplaceHit  = isa.NewSite()
	siteBuilderGrow = isa.NewSite()
	siteInt2DecLoop = isa.NewSite()
	siteStrToIntLp  = isa.NewSite()
	siteEncodeLoop  = isa.NewSite()
)

// StrHash returns the string's hash, computing and caching it on first use
// (rstr.ll_strhash).
func (rt *Runtime) StrHash(s *heap.Obj) uint64 {
	rt.requireStr(s, "StrHash")
	rt.S.Ops(isa.Load, 1)
	rt.S.Ops(isa.ALU, 1)
	if s.HasHash {
		return s.HashCache
	}
	var h uint64 = 14695981039346656037
	for _, b := range s.Bytes {
		h = (h ^ uint64(b)) * 1099511628211
	}
	n := len(s.Bytes)
	rt.S.Ops(isa.Load, n)
	rt.S.Ops(isa.ALU, 2*n)
	rt.S.Branch(siteStrLoop.PC(), false)
	if h == 0 {
		h = 1
	}
	s.HashCache = h
	s.HasHash = true
	return h
}

// StrConcat returns a new string a+b with memcpy-style cost.
func (rt *Runtime) StrConcat(a, b *heap.Obj) *heap.Obj {
	rt.requireStr(a, "StrConcat")
	rt.requireStr(b, "StrConcat")
	words := (len(a.Bytes) + len(b.Bytes) + 7) / 8
	rt.S.Ops(isa.Load, words)
	rt.S.Ops(isa.Store, words)
	rt.S.Ops(isa.ALU, 4)
	out := rt.NewStrN(len(a.Bytes) + len(b.Bytes))
	n := copy(out.Bytes, a.Bytes)
	copy(out.Bytes[n:], b.Bytes)
	return out
}

// StrJoin joins parts, the elements of a guest list and every one a
// string, with separator sep (rstr.ll_join).
func (rt *Runtime) StrJoin(sep *heap.Obj, parts []heap.Value) *heap.Obj {
	rt.requireStr(sep, "StrJoin")
	total := 0
	for _, p := range parts {
		rt.requireStr(p.O, "StrJoin part")
		total += len(p.O.Bytes)
	}
	if len(parts) > 1 {
		total += len(sep.Bytes) * (len(parts) - 1)
	}
	// Length pre-pass plus copy pass.
	rt.S.Ops(isa.Load, len(parts)*2)
	words := (total + 7) / 8
	rt.S.Ops(isa.Load, words)
	rt.S.Ops(isa.Store, words)
	rt.S.Ops(isa.ALU, 4+len(parts))
	rt.S.Branch(siteStrLoop.PC(), len(parts) > 0)
	out := rt.NewStrN(total)
	at := 0
	for i, p := range parts {
		if i > 0 {
			at += copy(out.Bytes[at:], sep.Bytes)
		}
		at += copy(out.Bytes[at:], p.O.Bytes)
	}
	return out
}

// StrFindChar returns the first index of c at or after start, or -1
// (rstr.ll_find_char).
func (rt *Runtime) StrFindChar(s *heap.Obj, c byte, start int) int {
	rt.requireStr(s, "StrFindChar")
	if start < 0 {
		start = 0
	}
	for i := start; i < len(s.Bytes); i++ {
		rt.S.Ops(isa.Load, 1)
		rt.S.Ops(isa.ALU, 1)
		if s.Bytes[i] == c {
			rt.S.Branch(siteFindLoop.PC(), true)
			return i
		}
	}
	rt.S.Branch(siteFindLoop.PC(), false)
	return -1
}

// StrFind returns the first index of needle in s at or after start, or -1.
func (rt *Runtime) StrFind(s, needle *heap.Obj, start int) int {
	rt.requireStr(s, "StrFind")
	rt.requireStr(needle, "StrFind needle")
	if start < 0 {
		start = 0
	}
	n, m := len(s.Bytes), len(needle.Bytes)
	if m == 0 {
		return start
	}
	for i := start; i+m <= n; i++ {
		rt.S.Ops(isa.Load, 2)
		rt.S.Ops(isa.ALU, 2)
		if string(s.Bytes[i:i+m]) == string(needle.Bytes) {
			rt.S.Ops(isa.Load, (m+7)/8*2)
			rt.S.Branch(siteFindLoop.PC(), true)
			return i
		}
	}
	rt.S.Branch(siteFindLoop.PC(), false)
	return -1
}

// StrReplace replaces every occurrence of old with new_ (rstring.replace).
func (rt *Runtime) StrReplace(s, old, new_ *heap.Obj) *heap.Obj {
	rt.requireStr(s, "StrReplace")
	rt.requireStr(old, "StrReplace old")
	rt.requireStr(new_, "StrReplace new")
	if len(old.Bytes) == 0 {
		return s
	}
	out := rt.scratch[:0]
	i := 0
	for i < len(s.Bytes) {
		rt.S.Ops(isa.Load, 1)
		rt.S.Ops(isa.ALU, 2)
		if i+len(old.Bytes) <= len(s.Bytes) &&
			string(s.Bytes[i:i+len(old.Bytes)]) == string(old.Bytes) {
			rt.S.Branch(siteReplaceHit.PC(), true)
			out = append(out, new_.Bytes...)
			rt.S.Ops(isa.Store, (len(new_.Bytes)+7)/8)
			i += len(old.Bytes)
		} else {
			rt.S.Branch(siteReplaceHit.PC(), false)
			out = append(out, s.Bytes[i])
			rt.S.Ops(isa.Store, 1)
			i++
		}
	}
	rt.scratch = out
	return rt.NewStr(out)
}

// StrSplitChar splits s on byte c, returning the pieces.
func (rt *Runtime) StrSplitChar(s *heap.Obj, c byte) []*heap.Obj {
	rt.requireStr(s, "StrSplitChar")
	var out []*heap.Obj
	start := 0
	for i := 0; i <= len(s.Bytes); i++ {
		rt.S.Ops(isa.Load, 1)
		rt.S.Ops(isa.ALU, 1)
		if i == len(s.Bytes) || s.Bytes[i] == c {
			out = append(out, rt.NewStr(s.Bytes[start:i]))
			start = i + 1
		}
	}
	return out
}

// Int2Dec renders v in decimal (rstr.ll_int2dec).
func (rt *Runtime) Int2Dec(v int64) *heap.Obj {
	var buf [20]byte // len("-9223372036854775808")
	s := strconv.AppendInt(buf[:0], v, 10)
	rt.S.Ops(isa.Div, len(s))
	rt.S.Ops(isa.ALU, 2*len(s))
	rt.S.Ops(isa.Store, len(s))
	rt.S.Branch(siteInt2DecLoop.PC(), false)
	return rt.NewStr(s)
}

// StrToInt parses a decimal integer (arithmetic.string_to_int, telco's
// hot AOT call). Reports success.
func (rt *Runtime) StrToInt(s *heap.Obj) (int64, bool) {
	rt.requireStr(s, "StrToInt")
	n := len(s.Bytes)
	rt.S.Ops(isa.Load, n+1)
	rt.S.Ops(isa.ALU, 3*n+2)
	rt.S.Branch(siteStrToIntLp.PC(), false)
	v, err := strconv.ParseInt(string(s.Bytes), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// EncodeASCII validates/copies a string byte-for-byte, the analog of
// runicode.unicode_encode_ucs1_helper (bm_mako's top AOT call).
func (rt *Runtime) EncodeASCII(s *heap.Obj) *heap.Obj {
	rt.requireStr(s, "EncodeASCII")
	n := len(s.Bytes)
	rt.S.Ops(isa.Load, n)
	rt.S.Ops(isa.ALU, 2*n)
	rt.S.Ops(isa.Store, n)
	rt.S.Branch(siteEncodeLoop.PC(), false)
	return rt.NewStr(s.Bytes)
}

// Translate maps bytes through a 256-entry table, the analog of
// W_UnicodeObject_descr_translate (html5lib's top AOT call).
func (rt *Runtime) Translate(s *heap.Obj, table [256]byte) *heap.Obj {
	rt.requireStr(s, "Translate")
	n := len(s.Bytes)
	rt.S.Ops(isa.Load, 2*n)
	rt.S.Ops(isa.Store, n)
	rt.S.Ops(isa.ALU, n)
	out := rt.NewStrN(n)
	for i, b := range s.Bytes {
		out.Bytes[i] = table[b]
	}
	return out
}

// JSONEscape escapes a string for JSON output, the analog of
// _pypyjson.raw_encode_basestring_ascii (json_bench's top AOT call).
func (rt *Runtime) JSONEscape(s *heap.Obj) *heap.Obj {
	rt.requireStr(s, "JSONEscape")
	out := append(rt.scratch[:0], '"')
	for _, b := range s.Bytes {
		rt.S.Ops(isa.Load, 1)
		rt.S.Ops(isa.ALU, 2)
		switch b {
		case '"', '\\':
			out = append(out, '\\', b)
		case '\n':
			out = append(out, '\\', 'n')
		case '\t':
			out = append(out, '\\', 't')
		default:
			out = append(out, b)
		}
		rt.S.Ops(isa.Store, 1)
	}
	out = append(out, '"')
	rt.scratch = out
	return rt.NewStr(out)
}

// Builder is the analog of rbuilder: an append-only string builder whose
// ll_append shows up in Table III for spitfire and json_bench.
type Builder struct {
	buf  []byte
	addr uint64
}

// NewBuilder returns an empty builder with simulated buffer space.
func (rt *Runtime) NewBuilder() *Builder {
	return &Builder{addr: rt.H.RawAlloc(64)}
}

// ScanRefs implements heap.NativeScanner (builders hold no refs).
func (b *Builder) ScanRefs(visit func(*heap.Obj)) {}

// NativeSize implements heap.NativeSized.
func (b *Builder) NativeSize() uint64 { return uint64(cap(b.buf)) }

// BuilderAppend appends a guest string (rbuilder.ll_append).
func (rt *Runtime) BuilderAppend(b *Builder, s *heap.Obj) {
	rt.requireStr(s, "BuilderAppend")
	grow := len(b.buf)+len(s.Bytes) > cap(b.buf)
	rt.S.Branch(siteBuilderGrow.PC(), grow)
	if grow {
		n := cap(b.buf)*2 + len(s.Bytes)
		nb := make([]byte, len(b.buf), n)
		copy(nb, b.buf)
		b.buf = nb
		b.addr = rt.H.RawAlloc(uint64(n))
		rt.S.Ops(isa.Load, (len(b.buf)+7)/8)
		rt.S.Ops(isa.Store, (len(b.buf)+7)/8)
	}
	b.buf = append(b.buf, s.Bytes...)
	words := (len(s.Bytes) + 7) / 8
	rt.S.Ops(isa.Load, words)
	rt.S.Ops(isa.Store, words)
	rt.S.Ops(isa.ALU, 3)
}

// BuilderLen returns the current length.
func (b *Builder) BuilderLen() int { return len(b.buf) }

// BuilderBuild finalizes the builder into a guest string.
func (rt *Runtime) BuilderBuild(b *Builder) *heap.Obj {
	words := (len(b.buf) + 7) / 8
	rt.S.Ops(isa.Load, words)
	rt.S.Ops(isa.Store, words)
	return rt.NewStr(b.buf)
}
