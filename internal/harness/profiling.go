package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"metajit/internal/cpu"
	"metajit/internal/mtjit"
	"metajit/internal/profile"
	"metajit/internal/reqtrace"
)

// ProfileArtifacts names the three files a run with Options.ProfileDir
// writes: the Chrome trace, the folded flamegraph stacks and the interval
// series, in that order.
func ProfileArtifacts(dir, bench string, kind VMKind) []string {
	base := filepath.Join(dir, fmt.Sprintf("%s-%s", bench, kind))
	return []string{base + ".trace.json", base + ".folded", base + ".series.txt"}
}

// attachProfiler attaches the streaming profiler when the call asks for
// a profile or a request span wants the run's phases. A request span
// alone keeps the interval series off (Observe.ProfileWindow is zero):
// nobody reads it, and with the series off no dispatch tick is ever
// stamped. Span labels are resolved at span open, during execution, by
// which time the run has its guest VM and JIT engine.
func (r *run) attachProfiler() error {
	if r.obs.ProfileWindow == 0 && r.obs.ReqTrace == nil {
		return nil
	}
	clock := r.mach.Params().ClockHz
	cfg := profile.Config{
		ClockHz:  clock,
		SpanSink: reqTraceSink(r.obs.ReqTrace, clock),
		Labels:   r.labels(),
		Window:   r.obs.ProfileWindow,
	}
	if dir := r.obs.ProfileDir; dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("harness: profile dir: %w", err)
		}
		f, err := os.Create(ProfileArtifacts(dir, r.p.Name, r.spec.VM)[0])
		if err != nil {
			return fmt.Errorf("harness: profile trace: %w", err)
		}
		r.chromeFile, r.chromeBuf = f, bufio.NewWriter(f)
		cfg.Chrome = r.chromeBuf
	}
	r.prof = profile.Attach(r.mach, cfg)
	return nil
}

// labels names traces and lower-tier code objects through the JIT
// engine's record and AOT functions through the VM's runtime; before
// either exists (and in an alloc replay, which has neither) every id
// falls back to its numeric label.
func (r *run) labels() profile.Labels {
	tier := func(t mtjit.Tier) func(uint64) string {
		return func(id uint64) string {
			if r.eng == nil {
				return ""
			}
			if c := r.eng.TierCodeByID(t, uint32(id)); c != nil {
				return c.Label()
			}
			return ""
		}
	}
	return profile.Labels{
		Trace: func(id uint64) string {
			if r.eng == nil {
				return ""
			}
			if t := r.eng.TraceByID(uint32(id)); t != nil {
				return t.Label()
			}
			return ""
		},
		Baseline: tier(mtjit.BaselineTier),
		Method:   tier(mtjit.MethodTier),
		AOTFunc: func(id uint64) string {
			if r.vm == nil {
				return ""
			}
			if f := r.vm.RT.ByID(uint32(id)); f != nil {
				return f.Name
			}
			return ""
		},
	}
}

// close releases the Chrome trace file of a run that did not reach
// writeProfile.
func (r *run) close() {
	if r.chromeFile != nil {
		r.chromeFile.Close()
	}
}

// writeProfile completes the streamed Chrome trace and writes the other
// two ProfileDir artifacts from the finished profiler.
func (r *run) writeProfile() error {
	if err := r.chromeBuf.Flush(); err != nil {
		return fmt.Errorf("harness: profile trace: %w", err)
	}
	if err := r.chromeFile.Close(); err != nil {
		return fmt.Errorf("harness: profile trace: %w", err)
	}
	r.chromeFile = nil
	names := ProfileArtifacts(r.obs.ProfileDir, r.p.Name, r.spec.VM)
	if err := writeArtifact(names[1], r.prof.Stream.WriteFolded); err != nil {
		return fmt.Errorf("harness: profile flamegraph: %w", err)
	}
	if err := writeArtifact(names[2], r.prof.Stream.WriteSeries); err != nil {
		return fmt.Errorf("harness: profile series: %w", err)
	}
	return nil
}

// reqTraceSink forwards closed profile spans to a request span in
// simulated microseconds (nil sink when the run carries no request
// trace). Start/Dur are the span's inclusive interval on the simulated
// clock; Instrs/Cycles are the self counters — the per-phase work the
// merged Chrome export annotates with IPC. Retention is bounded by the
// span's recorder (Config.MaxVMSpans), so a long run cannot grow the
// request tree without bound.
func reqTraceSink(dst *reqtrace.Span, clockHz float64) func(profile.CompletedSpan) {
	if dst == nil {
		return nil
	}
	if clockHz <= 0 {
		clockHz = 3e9
	}
	scale := 1e6 / clockHz
	return func(cs profile.CompletedSpan) {
		if cs.Depth != 0 && dst.CutVM() {
			return
		}
		dst.AddVM(reqtrace.VMSpan{
			Label:   cs.Label,
			Phase:   cs.Phase.String(),
			Depth:   cs.Depth,
			StartUS: cpu.CyclesOf(cs.Start.Units) * scale,
			DurUS:   cpu.CyclesOf(cs.End.Units-cs.Start.Units) * scale,
			Instrs:  cs.Self.Instrs,
			Cycles:  cs.Self.Units / cpu.UnitsPerCycle,
		})
	}
}

// writeArtifact writes one profile export through a buffered writer.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
