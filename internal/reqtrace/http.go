package reqtrace

import (
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// Handler serves the flight recorder at /debug/reqtrace.
//
//	GET /debug/reqtrace            → JSON Dump of recent trees (newest first)
//	GET /debug/reqtrace?n=10       → only the newest 10
//	GET /debug/reqtrace?trace=<32 hex> → only that trace's trees
//	GET /debug/reqtrace?format=chrome  → merged Chrome trace download
//
// format=chrome composes with trace= and n=.
func (r *Recorder) Handler() http.Handler {
	const badTrace = "trace must be 32 hex digits"
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "reqtrace disabled", http.StatusNotFound)
			return
		}
		var trees []TreeSnapshot
		if th := req.URL.Query().Get("trace"); th != "" {
			// The length is refused before decoding: given more than 32
			// digits, hex.Decode writes past trace.
			var trace TraceID
			if len(th) != hex.EncodedLen(len(trace)) {
				http.Error(w, badTrace, http.StatusBadRequest)
				return
			}
			if _, err := hex.Decode(trace[:], []byte(th)); err != nil {
				http.Error(w, badTrace, http.StatusBadRequest)
				return
			}
			trees = r.Find(trace)
		} else {
			n := 0
			if nq := req.URL.Query().Get("n"); nq != "" {
				v, err := strconv.Atoi(nq)
				if err != nil || v < 0 {
					http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
					return
				}
				n = v
			}
			trees = r.Trees(n)
		}
		if req.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition",
				`attachment; filename="reqtrace-`+r.cfg.Process+`.json"`)
			if err := WriteChrome(w, trees); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Dump{ //nolint:errcheck // best-effort debug endpoint
			Process: r.cfg.Process,
			Time:    time.Now().UTC(),
			Dropped: r.Dropped(),
			Trees:   trees,
		})
	})
}

// PanicDump wraps an HTTP handler so a panicking request dumps the
// flight ring before answering 500 — the crash context an always-on
// recorder exists for. The panic is contained, not re-raised, so one
// bad request cannot take the process down.
func PanicDump(rec *Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				rec.Anomaly("panic")
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, req)
	})
}
