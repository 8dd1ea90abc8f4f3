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
