package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"metajit/internal/harness"
)

// The /vm/* endpoints: live views of the worker's in-flight (and the
// retained tail of finished) simulations, read off the LiveTracker's
// published snapshots — per-phase counters, the compiled trace
// inventory, and warmup progress, the way a production VM daemon
// surfaces its JIT's state to operators. Only fresh simulations appear:
// a memo or store hit runs nothing to watch.

// phasesView is the /vm/phases row: identity plus per-phase counters.
type phasesView struct {
	ID     uint64              `json:"id"`
	Bench  string              `json:"bench"`
	VM     harness.VMKind      `json:"vm"`
	Done   bool                `json:"done"`
	Instrs uint64              `json:"instrs"`
	Cycles float64             `json:"cycles"`
	IPC    float64             `json:"ipc"`
	Phases []harness.LivePhase `json:"phases"`
}

func (w *Worker) handlePhases(rw http.ResponseWriter, r *http.Request) {
	runs := w.selectRuns(rw, r)
	if runs == nil {
		return
	}
	out := make([]phasesView, 0, len(runs))
	for _, st := range runs {
		v := phasesView{ID: st.ID, Bench: st.Bench, VM: st.VM}
		if sn := st.Snap; sn != nil {
			v.Done = sn.Done
			v.Instrs = sn.Instrs
			v.Cycles = sn.Cycles
			if sn.Cycles > 0 {
				v.IPC = float64(sn.Instrs) / sn.Cycles
			}
			v.Phases = sn.Phases
		}
		out = append(out, v)
	}
	writeJSON(rw, http.StatusOK, map[string]any{"runs": out})
}

// tracesView is the /vm/traces row: identity plus the jitlog inventory
// (traces and bridges, then baseline and method code by "tier").
type tracesView struct {
	ID     uint64              `json:"id"`
	Bench  string              `json:"bench"`
	VM     harness.VMKind      `json:"vm"`
	Done   bool                `json:"done"`
	Traces []harness.LiveTrace `json:"traces"`
	Code   []harness.LiveCode  `json:"code"`
}

func (w *Worker) handleTraces(rw http.ResponseWriter, r *http.Request) {
	runs := w.selectRuns(rw, r)
	if runs == nil {
		return
	}
	out := make([]tracesView, 0, len(runs))
	for _, st := range runs {
		v := tracesView{ID: st.ID, Bench: st.Bench, VM: st.VM}
		if sn := st.Snap; sn != nil {
			v.Done = sn.Done
			v.Traces = sn.Traces
			v.Code = sn.Code
		}
		out = append(out, v)
	}
	writeJSON(rw, http.StatusOK, map[string]any{"runs": out})
}

// selectRuns resolves the optional ?id= filter; on a bad or unknown id
// it writes the error and returns nil (an empty tracker returns an
// empty, non-nil slice).
func (w *Worker) selectRuns(rw http.ResponseWriter, r *http.Request) []harness.LiveRunStatus {
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			httpError(rw, http.StatusBadRequest, "bad id")
			return nil
		}
		st, ok := w.live.Run(id)
		if !ok {
			httpError(rw, http.StatusNotFound, "no such run")
			return nil
		}
		return []harness.LiveRunStatus{st}
	}
	st := w.live.Status()
	if st == nil {
		st = []harness.LiveRunStatus{}
	}
	return st
}

// warmupEvent is one SSE datum: per-run warmup progress, the Figure 10
// quantity read live — for each executing tier, the fraction of guest
// work (bytecodes) it has retired so far.
type warmupEvent struct {
	Seq  uint64          `json:"seq"`
	Runs []warmupRunView `json:"runs"`
}

type warmupRunView struct {
	ID        uint64             `json:"id"`
	Bench     string             `json:"bench"`
	VM        harness.VMKind     `json:"vm"`
	Done      bool               `json:"done"`
	Cycles    float64            `json:"cycles"`
	Bytecodes uint64             `json:"bytecodes"`
	Tiers     map[string]float64 `json:"tiers"` // phase -> fraction of work
}

// handleWarmup streams warmup progress as server-sent events. Query
// params: events=N caps the number of events (default unbounded,
// stopping when the client goes away), interval=DUR sets the poll
// cadence (default 200ms, min 10ms).
func (w *Worker) handleWarmup(rw http.ResponseWriter, r *http.Request) {
	fl, ok := rw.(http.Flusher)
	if !ok {
		httpError(rw, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	maxEvents := 0
	if v := r.URL.Query().Get("events"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(rw, http.StatusBadRequest, "bad events")
			return
		}
		maxEvents = n
	}
	interval := 200 * time.Millisecond
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpError(rw, http.StatusBadRequest, "bad interval")
			return
		}
		if d < 10*time.Millisecond {
			d = 10 * time.Millisecond
		}
		interval = d
	}
	rw.Header().Set("Content-Type", "text/event-stream")
	rw.Header().Set("Cache-Control", "no-cache")
	rw.WriteHeader(http.StatusOK)

	tick := time.NewTicker(interval)
	defer tick.Stop()
	enc := json.NewEncoder(rw)
	for seq := uint64(1); ; seq++ {
		ev := warmupEvent{Seq: seq}
		for _, st := range w.live.Status() {
			rv := warmupRunView{ID: st.ID, Bench: st.Bench, VM: st.VM}
			if sn := st.Snap; sn != nil {
				rv.Done = sn.Done
				rv.Cycles = sn.Cycles
				rv.Bytecodes = sn.Bytecodes
				rv.Tiers = map[string]float64{}
				for _, ph := range sn.Phases {
					if ph.Work > 0 && sn.Bytecodes > 0 {
						rv.Tiers[ph.Phase] = float64(ph.Work) / float64(sn.Bytecodes)
					}
				}
			}
			ev.Runs = append(ev.Runs, rv)
		}
		if _, err := fmt.Fprint(rw, "data: "); err != nil {
			return
		}
		if err := enc.Encode(ev); err != nil {
			return
		}
		if _, err := fmt.Fprint(rw, "\n"); err != nil {
			return
		}
		fl.Flush()
		if maxEvents > 0 && int(seq) >= maxEvents {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}
