package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"metajit/internal/bench"
	"metajit/internal/cpu"
	"metajit/internal/jitlog"
	"metajit/internal/mtjit"
	"metajit/internal/profile"
	"metajit/internal/pylang"
	"metajit/internal/reqtrace"
)

// profiling is one run's attached profiler with what is owed at the end
// of the run: artifacts for Options.ProfileDir, Result.Profile when the
// caller asked for a profile, and the request span that hears about
// profiler errors. A nil *profiling (no profiler requested) is valid.
type profiling struct {
	prof     *profile.Profiler
	span     *reqtrace.Span
	exported bool // Options.Profile/ProfileDir asked: the Result carries the profiler
	dir      string
	base     string // <bench>-<vm>, the artifact file stem

	chromeFile *os.File
	chromeBuf  *bufio.Writer
}

// attachProfiler attaches the streaming profiler when the options ask
// for a profile or link the run into a request trace. It must run after
// the pintool observers — PhaseTracker first, so barrier checks see the
// post-switch phase — and before any guest code. A request trace alone
// keeps the interval series off: nobody reads it, and with the series
// off no dispatch tick is ever stamped.
//
// vm and log point at the caller's variables for the guest VM and its
// JIT log, which do not exist yet: span labels are resolved at span
// open, during execution, by which time the caller has assigned them.
// Both are nil for a run with no guest (alloc replay).
func attachProfiler(mach *cpu.Machine, p *bench.Program, kind VMKind, opt Options, vm **pylang.VM, log **jitlog.Log) (*profiling, error) {
	exported := opt.Profile || opt.ProfileDir != ""
	if !exported && opt.ReqTrace == nil {
		return nil, nil
	}
	pr := &profiling{
		span:     opt.ReqTrace,
		exported: exported,
		dir:      opt.ProfileDir,
		base:     fmt.Sprintf("%s-%s", p.Name, kind),
	}
	pcfg := profile.Config{
		ClockHz:  mach.Params().ClockHz,
		SpanSink: reqTraceSink(pr.span, mach.Params().ClockHz),
	}
	if vm != nil {
		pcfg.Labels = guestLabels(vm, log)
	}
	if pr.exported {
		pcfg.Window = opt.ProfileWindow
		if pcfg.Window == 0 {
			pcfg.Window = DefaultProfileWindow
		}
	}
	if pr.dir != "" {
		if err := os.MkdirAll(pr.dir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: profile dir: %w", err)
		}
		f, err := os.Create(filepath.Join(pr.dir, pr.base+".trace.json"))
		if err != nil {
			return nil, fmt.Errorf("harness: profile trace: %w", err)
		}
		pr.chromeFile = f
		pr.chromeBuf = bufio.NewWriter(f)
		pcfg.Chrome = pr.chromeBuf
	}
	pr.prof = profile.Attach(mach, pcfg)
	return pr, nil
}

// guestLabels names traces and lower-tier code objects through the JIT
// log and AOT functions through the VM's runtime; before either exists
// every id falls back to its numeric label.
func guestLabels(vm **pylang.VM, log **jitlog.Log) profile.Labels {
	tier := func(t mtjit.Tier) func(uint64) string {
		return func(id uint64) string {
			if *log == nil {
				return ""
			}
			return (*log).TierLabel(t, id)
		}
	}
	return profile.Labels{
		Trace: func(id uint64) string {
			if *log == nil {
				return ""
			}
			return (*log).TraceLabel(id)
		},
		Baseline: tier(mtjit.BaselineTier),
		Method:   tier(mtjit.MethodTier),
		AOTFunc: func(id uint64) string {
			if *vm == nil {
				return ""
			}
			for _, f := range (*vm).RT.Funcs() {
				if uint64(f.ID) == id {
					return f.Name
				}
			}
			return ""
		},
	}
}

// close releases the Chrome trace file of a run that did not reach
// finish.
func (pr *profiling) close() {
	if pr != nil && pr.chromeFile != nil {
		pr.chromeFile.Close()
	}
}

// finish finalizes the profiler, reports its errors to the request span
// (on the serving path nothing else reads them), hands the profiler to
// the Result only when a profile was asked for — a memoized Result must
// not pin the machine and guest heap behind a profiler nobody wanted —
// and writes the ProfileDir artifacts.
func (pr *profiling) finish(res *Result) error {
	if pr == nil {
		return nil
	}
	pr.prof.Finish()
	if err := pr.prof.Err(); err != nil {
		pr.span.Annotate("profile_err", err.Error())
	}
	if pr.exported {
		res.Profile = pr.prof
	}
	if pr.dir == "" {
		return nil
	}
	if err := pr.chromeBuf.Flush(); err != nil {
		return fmt.Errorf("harness: profile trace: %w", err)
	}
	if err := pr.chromeFile.Close(); err != nil {
		return fmt.Errorf("harness: profile trace: %w", err)
	}
	res.ProfileFiles = append(res.ProfileFiles, pr.chromeFile.Name())
	pr.chromeFile = nil
	folded := filepath.Join(pr.dir, pr.base+".folded")
	if err := writeArtifact(folded, pr.prof.Stream.WriteFolded); err != nil {
		return fmt.Errorf("harness: profile flamegraph: %w", err)
	}
	res.ProfileFiles = append(res.ProfileFiles, folded)
	series := filepath.Join(pr.dir, pr.base+".series.txt")
	if err := writeArtifact(series, pr.prof.Stream.WriteSeries); err != nil {
		return fmt.Errorf("harness: profile series: %w", err)
	}
	res.ProfileFiles = append(res.ProfileFiles, series)
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
			StartUS: cs.Start.Cycles * scale,
			DurUS:   (cs.End.Cycles - cs.Start.Cycles) * scale,
			Instrs:  cs.Self.Instrs,
			Cycles:  uint64(cs.Self.Cycles),
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
