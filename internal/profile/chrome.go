package profile

import (
	"fmt"
	"io"
	"strconv"

	"metajit/internal/cpu"
)

// chromeWriter streams Chrome trace-event JSON (the "JSON Array Format"
// with metadata object wrapper) to an io.Writer during the run. All
// fields are emitted manually in a fixed order so traces are
// byte-deterministic and golden-testable.
//
// Duration events use ph:"B"/"E" on a single pid/tid (the simulated
// machine is single-threaded); the E event carries the span's inclusive
// and self counters as args. Instant events (ph:"i") mark guard
// failures, bridge transfers, compilations, and skipped GCs.
//
// The event cap gates NEW B and instant events only: a span whose B was
// emitted always gets its E, so capped traces stay well-formed.
type chromeWriter struct {
	w       io.Writer
	err     error
	perCyc  float64 // µs per cycle
	max     int
	written int
	dropped int
	first   bool
}

func newChromeWriter(w io.Writer, clockHz float64, max int) *chromeWriter {
	if clockHz <= 0 {
		clockHz = 3e9
	}
	if max <= 0 {
		max = DefaultMaxChromeEvents
	}
	cw := &chromeWriter{w: w, perCyc: 1e6 / clockHz, max: max, first: true}
	cw.printf(`{"traceEvents":[`)
	return cw
}

func (cw *chromeWriter) printf(format string, args ...any) {
	if cw.err != nil {
		return
	}
	_, cw.err = fmt.Fprintf(cw.w, format, args...)
}

func (cw *chromeWriter) sep() {
	if cw.first {
		cw.first = false
		cw.printf("\n")
	} else {
		cw.printf(",\n")
	}
}

// begin emits a B event unless the cap is reached; the return value
// tells the caller whether a matching end is owed.
func (cw *chromeWriter) begin(name, cat string, units uint64) bool {
	if cw.written >= cw.max {
		cw.dropped++
		return false
	}
	cw.written++
	cw.sep()
	cw.printf(`{"ph":"B","pid":1,"tid":1,"ts":%.3f,"name":%s,"cat":%s}`,
		cw.us(units), strconv.Quote(name), strconv.Quote(cat))
	return true
}

// end closes the innermost open B event, attaching the span's counters.
func (cw *chromeWriter) end(units uint64, incl, self State) {
	cw.written++
	cw.sep()
	ipc := 0.0
	if incl.Units > 0 {
		ipc = float64(incl.Instrs) / cpu.CyclesOf(incl.Units)
	}
	cw.printf(`{"ph":"E","pid":1,"tid":1,"ts":%.3f,"args":{"instrs":%d,"cycles":%.2f,"ipc":%.3f,"br_miss":%d,"l1_miss":%d,"l2_miss":%d,"self_instrs":%d,"self_cycles":%.2f}}`,
		cw.us(units), incl.Instrs, cpu.CyclesOf(incl.Units), ipc,
		incl.Mispredicts, incl.L1Miss, incl.L2Miss,
		self.Instrs, cpu.CyclesOf(self.Units))
}

// us converts machine units to trace microseconds.
func (cw *chromeWriter) us(units uint64) float64 { return cpu.CyclesOf(units) * cw.perCyc }

// instant emits a thread-scoped instant event.
func (cw *chromeWriter) instant(name string, units uint64, arg uint64) {
	if cw.written >= cw.max {
		cw.dropped++
		return
	}
	cw.written++
	cw.sep()
	cw.printf(`{"ph":"i","pid":1,"tid":1,"ts":%.3f,"name":%s,"s":"t","args":{"arg":%d}}`,
		cw.us(units), strconv.Quote(name), arg)
}

// close terminates the JSON document, recording dropped-event counts.
func (cw *chromeWriter) close() {
	cw.printf("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":%d}}\n", cw.dropped)
}

func (cw *chromeWriter) Err() error { return cw.err }
