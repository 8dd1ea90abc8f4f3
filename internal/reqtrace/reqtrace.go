// Package reqtrace is a zero-dependency end-to-end request tracer for
// the serving stack: a frontend (or a client) mints a 128-bit trace ID,
// propagates it through Frontend → Worker → Store → Runner via a
// traceparent-style header, and every process records typed child spans
// (route, failover attempt, singleflight wait vs. lead, shed, store
// read, quarantine, memo hit, simulate) into a bounded per-process span
// buffer. When a request triggers a real simulation, the harness links
// the cluster span tree to that run's internal/profile phase spans
// (same trace ID, injected via harness.Options.ReqTrace), so a single
// merged Chrome-trace export shows HTTP-level latency decomposed down
// to GC/tracing/JIT phases and per-phase IPC.
//
// On top of the same buffer sits an always-on flight recorder: each
// Recorder keeps the last N completed span trees of its process, serves
// them at /debug/reqtrace (JSON and Chrome trace download), and dumps
// them automatically on panic, drain, and store-corruption quarantine
// events (Recorder.Anomaly).
//
// Everything is allocation-bounded: a tree stops growing past
// Config.MaxSpans (further Start calls return a nil span, whose methods
// are all no-ops), a simulate span stops capturing VM phase spans past
// Config.MaxVMSpans, and the completed-tree ring holds Config.Capacity
// trees. Trace context never enters harness.Spec or
// cluster.WireResult, so tracing a request cannot change any result
// byte.
package reqtrace

import (
	"encoding/hex"
	"net/http"
	"os"
	"sync/atomic"
	"time"
)

// TraceID is the 128-bit request identity shared by every layer that
// served the request.
type TraceID [16]byte

// SpanID is the 64-bit identity of one span within a trace.
type SpanID [8]byte

// Hex renders the trace ID as 32 lowercase hex digits.
func (t TraceID) Hex() string { return hex.EncodeToString(t[:]) }

// Hex renders the span ID as 16 lowercase hex digits.
func (s SpanID) Hex() string { return hex.EncodeToString(s[:]) }

// IsZero reports the invalid all-zero trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the invalid all-zero span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// Context is a propagated trace position: which trace, and which span
// the next layer's root should be parented under.
type Context struct {
	Trace TraceID
	Span  SpanID
}

// IsZero reports an absent context.
func (c Context) IsZero() bool { return c.Trace.IsZero() }

// Header is the propagation header name. The value follows the W3C
// traceparent layout: version "00", 32 hex trace-id digits, 16 hex
// span-id digits, and the flags byte "01" (sampled — every traced
// request records).
const Header = "traceparent"

// String renders the context in traceparent form:
// 00-<trace>-<span>-01.
func (c Context) String() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, c.Trace[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, c.Span[:])
	buf = append(buf, "-01"...)
	return string(buf)
}

// Parse decodes a traceparent value. It accepts any two-digit version
// and flags field (forward compatibility) but requires the exact
// 55-byte shape and a non-zero trace ID.
func Parse(s string) (Context, bool) {
	var c Context
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return c, false
	}
	if !isHex(s[:2]) || !isHex(s[53:]) {
		return c, false
	}
	if _, err := hex.Decode(c.Trace[:], []byte(s[3:35])); err != nil {
		return Context{}, false
	}
	if _, err := hex.Decode(c.Span[:], []byte(s[36:52])); err != nil {
		return Context{}, false
	}
	if c.Trace.IsZero() {
		return Context{}, false
	}
	return c, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// FromHTTP extracts the propagated context from a request's headers
// (zero Context when absent or malformed — the receiver then mints a
// fresh trace).
func FromHTTP(r *http.Request) Context {
	c, _ := Parse(r.Header.Get(Header))
	return c
}

// Inject sets the propagation header on an outbound request. A zero
// context injects nothing.
func Inject(h http.Header, c Context) {
	if !c.IsZero() {
		h.Set(Header, c.String())
	}
}

// IDSource mints trace and span IDs: a splitmix64 stream behind one
// atomic, so concurrent minting is lock-free and IDs never repeat
// within a process life. Load generators use a seeded source so a run's
// trace IDs are reproducible; servers seed from the clock and pid.
type IDSource struct {
	state atomic.Uint64
}

// NewIDSource returns a source seeded deterministically.
func NewIDSource(seed int64) *IDSource {
	s := &IDSource{}
	s.state.Store(uint64(seed))
	return s
}

// newProcessIDSource seeds from the wall clock and pid — distinct
// processes started in the same nanosecond still diverge.
func newProcessIDSource() *IDSource {
	return NewIDSource(time.Now().UnixNano() ^ int64(os.Getpid())<<32)
}

// next returns the next non-zero 64-bit value of the stream.
func (s *IDSource) next() uint64 {
	for {
		x := s.state.Add(0x9E3779B97F4A7C15)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// TraceID mints a fresh 128-bit trace ID.
func (s *IDSource) TraceID() TraceID {
	var t TraceID
	putUint64(t[:8], s.next())
	putUint64(t[8:], s.next())
	return t
}

// SpanID mints a fresh 64-bit span ID.
func (s *IDSource) SpanID() SpanID {
	var id SpanID
	putUint64(id[:], s.next())
	return id
}

// NewContext mints a root context: fresh trace, fresh span. Clients use
// this to name a request before sending it, so they can look the trace
// up afterwards.
func (s *IDSource) NewContext() Context {
	return Context{Trace: s.TraceID(), Span: s.SpanID()}
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// The span taxonomy. Kinds are stable strings (they appear in JSON
// exports, Chrome traces, and test assertions); see EXPERIMENTS.md
// "Request tracing & flight recorder" for the full semantics.
const (
	// KindRoute is a frontend's root span: one client request being
	// routed to its owning worker.
	KindRoute = "route"
	// KindAttempt is one upstream try during ring routing; failover
	// retries appear as later siblings under the same parent.
	KindAttempt = "attempt"
	// KindSingleflightLead marks the request that executed the shared
	// upstream call; dispatch attempts nest under it.
	KindSingleflightLead = "singleflight_lead"
	// KindSingleflightWait marks a request that coalesced onto an
	// identical in-flight cell and only waited.
	KindSingleflightWait = "singleflight_wait"
	// KindShed is the terminal span of a load-shed (429) request.
	KindShed = "shed"
	// KindDrain is the terminal span of a request refused by a draining
	// worker (503).
	KindDrain = "drain"
	// KindRun is a worker's (or single-mode daemon's) root span: one
	// cell request being served.
	KindRun = "run"
	// KindMemo marks a request answered from the in-process memoizer.
	KindMemo = "memo"
	// KindStoreRead covers one content-store lookup, verification
	// included; its error records miss vs. corruption.
	KindStoreRead = "store_read"
	// KindStoreWrite covers persisting a fresh result.
	KindStoreWrite = "store_write"
	// KindQuarantine marks a store blob that failed verification and was
	// quarantined — also an Anomaly event for the flight recorder.
	KindQuarantine = "quarantine"
	// KindSimulate covers a real simulation; when the request carries a
	// trace, the harness attaches the profiler and the span collects the
	// run's VM phase spans (Span.VM).
	KindSimulate = "simulate"
)
