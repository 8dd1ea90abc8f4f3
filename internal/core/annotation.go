// Package core implements the paper's primary contribution: the
// cross-layer annotation methodology (Section IV of Ilbeyi et al.,
// IISWC 2017).
//
// A cross-layer annotation is an event of interest marked at one layer of a
// meta-tracing VM stack (application, interpreter, framework, JIT IR) and
// intercepted at a lower layer. In the paper, annotations are lowered to
// x86 `nop` instructions whose (otherwise ignored) address operand carries a
// tag, and a Pin-based tool intercepts them at the machine level. Here the
// machine is the simulated CPU in internal/cpu: annotations are emitted as
// tagged nop instructions into the simulated instruction stream, and
// observers registered with the machine intercept them exactly as a PinTool
// would.
//
// This package owns the vocabulary shared by every layer: tags, the tag
// registry, the phase taxonomy of a meta-tracing JIT, the span grammar
// that says which phase each built-in tag opens or closes and where it
// may occur (Rule), and the Observer interface implemented by
// interception tools (see internal/pintool and internal/profile).
package core

import (
	"fmt"
	"sort"
	"sync"
)

// Tag identifies one cross-layer annotation kind. In the paper's encoding a
// tag is the unique address operand of an annotation nop; here it is the
// same small integer carried by the simulated nop instruction.
type Tag uint32

// Annotation is one intercepted cross-layer annotation occurrence. Arg is
// the tag-specific payload (e.g. an AOT function ID for TagAOTCallEnter, a
// trace ID for TagTraceEnter).
type Annotation struct {
	Tag Tag
	Arg uint64
}

// Observer intercepts annotations at the machine level. Instrs and Cycles
// are the machine's total retired-instruction and cycle counters at the
// moment the annotation nop retires, letting tools build timelines without
// perturbing the measured program (the nop itself is the only overhead).
type Observer interface {
	OnAnnotation(a Annotation, instrs, cycles uint64)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(a Annotation, instrs, cycles uint64)

// OnAnnotation implements Observer.
func (f ObserverFunc) OnAnnotation(a Annotation, instrs, cycles uint64) {
	f(a, instrs, cycles)
}

// Registry maps tag names to Tags so that layers built independently (guest
// application, interpreter, framework, JIT backend) can agree on tag
// identity by name, mirroring the paper's command-line enable/disable of
// individual annotations.
type Registry struct {
	mu    sync.Mutex
	byID  map[Tag]string
	byNam map[string]Tag
	next  Tag
}

// NewRegistry returns an empty tag registry. Tags allocated from different
// registries are unrelated.
func NewRegistry() *Registry {
	return &Registry{
		byID:  make(map[Tag]string),
		byNam: make(map[string]Tag),
		next:  tagFirstDynamic,
	}
}

// Define allocates (or returns the existing) Tag for name.
func (r *Registry) Define(name string) Tag {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byNam[name]; ok {
		return t
	}
	t := r.next
	r.next++
	r.byNam[name] = t
	r.byID[t] = name
	return t
}

// TagName returns the name of a built-in tag, or "tag<N>" for dynamic or
// unknown tags. Consumers holding a Registry should prefer Registry.Name,
// which also resolves dynamically defined tags.
func TagName(t Tag) string {
	if s := Rule(t).Name; s != "" {
		return s
	}
	return fmt.Sprintf("tag<%d>", t)
}

// Name returns the name of a tag defined in this registry, or the name of a
// built-in tag, or "tag<N>" for unknown tags.
func (r *Registry) Name(t Tag) string {
	r.mu.Lock()
	s, ok := r.byID[t]
	r.mu.Unlock()
	if ok {
		return s
	}
	return TagName(t)
}

// Names returns all dynamically defined tag names in sorted order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byNam))
	for n := range r.byNam {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
