//go:build !race

package cluster

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestWarmRunDoesNotAllocateBeyondItsReply is the handler-level guard on
// the serving path (make allocs): a memo hit copies its reply once, into
// the buffer it writes, and otherwise allocates the request's small
// change — decoder, cell key, span tree, headers. Encoding the result
// again, reflectively and indented, costs six reply lengths and thirty
// objects more, and fails both bounds. The recorder is one, reset
// between runs, so that its own copy of the reply is not counted.
func TestWarmRunDoesNotAllocateBeyondItsReply(t *testing.T) {
	w := newFakeWorker(t, testStore(t))
	h := w.Handler()
	rec := httptest.NewRecorder()
	run := func() {
		rec.Body.Reset()
		// Not httptest.NewRequest, which parses one through a 4 KB reader.
		req, err := http.NewRequest(http.MethodPost, "/run", strings.NewReader(`{"bench":"telco","vm":"pypy"}`))
		if err != nil {
			t.Fatal(err)
		}
		h.ServeHTTP(rec, req)
	}
	memoHit := func() int {
		t.Helper()
		if !strings.Contains(rec.Body.String(), `"source": "memo"`) {
			t.Fatalf("not a memo hit: %s", rec.Body)
		}
		return rec.Body.Len()
	}
	run() // simulates
	run()
	reply := memoHit()

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, run)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one run more
	t.Logf("a warm /run of %d bytes allocates %.0f bytes in %.0f objects", reply, bytes, objects)
	memoHit()
	if bytes > 2*float64(reply) {
		t.Errorf("a warm /run allocates %.0f bytes for a %d-byte reply, want at most twice the reply", bytes, reply)
	}
	if objects > 50 {
		t.Errorf("a warm /run allocates %.0f objects, want at most 50", objects)
	}
}
