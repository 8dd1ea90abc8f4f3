package main

import (
	"io"
	"strings"
	"testing"

	"metajit/internal/harness"
)

// TestRefuseForFile: a -file run builds its VM outside harness.Run, so
// the flags only harness.Run honours are refused, naming the flag, and
// the others pass.
func TestRefuseForFile(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opt      harness.Options
		teleDump bool
		refused  string // the flag named, "" if accepted
	}{
		{"plain", harness.Options{}, false, ""},
		{"threshold", harness.Options{Threshold: 7}, false, ""},
		{"profile", harness.Options{ProfileDir: "out"}, false, "-profile"},
		{"record", harness.Options{RecordDir: "traces"}, false, "-record"},
		{"jitlog", harness.Options{JITLog: io.Discard}, false, "-jitlog"},
		{"telemetry-dump", harness.Options{}, true, "-telemetry-dump"},
	} {
		err := refuseForFile(tc.opt, tc.teleDump)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refused != "" && (err == nil || !strings.HasSuffix(err.Error(), tc.refused)):
			t.Errorf("%s: got %v, want a refusal naming %s", tc.name, err, tc.refused)
		}
	}
}

// TestFileConfig: -file takes its guest configuration from the harness's
// VM table and refuses, by the row's own bits, the Scheme guests, the
// static kernels and unknown names.
func TestFileConfig(t *testing.T) {
	for _, tc := range []struct {
		vm                              string
		jit, baseline, method, adaptive bool
	}{
		{"cpython", false, false, false, false},
		{"pypy-nojit", false, false, false, false},
		{"pypy", true, false, false, false},
		{"pypy-tiered", true, true, false, false},
		{"pypy-amalg", true, true, true, false},
		{"pypy-adaptive", true, true, true, true},
	} {
		cfg, err := fileConfig(tc.vm, 7)
		if err != nil {
			t.Errorf("%s: refused: %v", tc.vm, err)
			continue
		}
		if cfg.Profile == nil || cfg.JIT != tc.jit || cfg.Baseline != tc.baseline ||
			cfg.Method != tc.method || cfg.Adaptive != tc.adaptive || cfg.Threshold != 7 {
			t.Errorf("%s: config %+v", tc.vm, cfg)
		}
	}
	for _, name := range []string{"racket", "pycket", "c", "bogus"} {
		if _, err := fileConfig(name, 0); err == nil || !strings.Contains(err.Error(), "-vm "+name) {
			t.Errorf("%s: got %v, want a refusal naming it", name, err)
		}
	}
}
