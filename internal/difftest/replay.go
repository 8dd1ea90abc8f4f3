package difftest

import (
	"bytes"
	"fmt"

	"metajit/internal/bench"
	"metajit/internal/harness"
	"metajit/internal/trace"
)

// CheckReplay is the 14th invariant: record → wire round-trip → replay
// must be a fixed point. The benchmark is run once with the recorder
// attached, the resulting trace is pushed through Encode/Decode (the
// wire format must preserve it byte-exactly), and the decoded trace is
// replayed as a trace benchmark under the configuration sealed in its
// header. The replay must reproduce the recorded Summary bit-for-bit
// and, because the replay also records, a byte-identical event stream
// (trace.CheckReplay is the comparison). Any divergence means either the
// simulator is nondeterministic or the trace format dropped state, both
// of which break the recorded-workload contract (EXPERIMENTS.md,
// "Recorded workloads").
//
// The passed Options seed the recording run; fields the trace header
// cannot carry (Params, Opts, SampleInterval) are forwarded to the replay
// explicitly, everything else is reconstructed from the trace alone —
// exercising the same path a replay-from-file takes.
func CheckReplay(p *bench.Program, kind harness.VMKind, opt harness.Options) error {
	opt.Record = true
	opt.RecordDir = ""
	r1, err := harness.Run(p, kind, opt)
	if err != nil {
		return fmt.Errorf("replay[%s/%s]: record run: %w", p.Name, kind, err)
	}
	tr := r1.Trace
	if tr == nil {
		return fmt.Errorf("replay[%s/%s]: record run produced no trace", p.Name, kind)
	}

	// Wire round trip: canonical encoding decodes to the same bytes and
	// the same content identity.
	enc := tr.Encode()
	dec, err := trace.Decode(enc)
	if err != nil {
		return fmt.Errorf("replay[%s/%s]: decode of fresh recording: %w", p.Name, kind, err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		return fmt.Errorf("replay[%s/%s]: encode∘decode is not the identity", p.Name, kind)
	}
	if dec.Hash() != tr.Hash() {
		return fmt.Errorf("replay[%s/%s]: content hash changed across the wire", p.Name, kind)
	}

	// Replay from the decoded trace alone, as a file-loaded replay
	// would: configuration from the header's snapshot, plus the few
	// harness options the snapshot does not cover.
	p2 := bench.FromTrace(dec)
	ropt := harness.ReplayOptions(dec)
	ropt.Params = opt.Params
	ropt.Opts = opt.Opts
	ropt.SampleInterval = opt.SampleInterval
	ropt.Record = true
	r2, err := harness.Run(&p2, kind, ropt)
	if err != nil {
		return fmt.Errorf("replay[%s/%s]: replay run: %w", p.Name, kind, err)
	}
	if r2.Trace == nil {
		return fmt.Errorf("replay[%s/%s]: replay run produced no trace", p.Name, kind)
	}

	if err := trace.CheckReplay(tr, r2.Trace); err != nil {
		return fmt.Errorf("replay[%s/%s]: %w", p.Name, kind, err)
	}
	return nil
}
