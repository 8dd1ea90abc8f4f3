// Command mtjit runs one benchmark (or a guest source file) on one VM
// configuration and reports cross-layer measurements: time, IPC, MPKI,
// phase breakdown, GC and JIT statistics.
//
// Usage:
//
//	mtjit -bench richards -vm pypy
//	mtjit -vm cpython -file prog.py
//	mtjit -bench binarytrees -vm pypy -jitlog
//	mtjit -bench telco -vm pypy-tiered -record traces/
//	mtjit -replay traces/telco-pypy-tiered.mtt
//	mtjit -replay traces/telco-pypy-tiered.mtt -replay-alloc
//
// -record writes the run's recorded workload trace (internal/trace)
// into the given directory. -replay loads a trace file and re-drives
// it: by default as a guest re-execution under the configuration
// sealed in the trace header, verified against the recorded summary
// (non-zero exit on divergence); with -replay-alloc, as a pure
// allocation replay driving only the GC (the dj_trace mode).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/harness"
	"metajit/internal/pintool"
	"metajit/internal/pylang"
	"metajit/internal/telemetry"
	"metajit/internal/trace"
)

func main() {
	benchName := flag.String("bench", "", "benchmark name (see -list)")
	file := flag.String("file", "", "run a guest source file instead of a benchmark")
	vmName := flag.String("vm", "pypy", "vm: cpython | pypy-nojit | pypy | pypy-tiered | pypy-amalg | pypy-adaptive | racket | pycket | c")
	list := flag.Bool("list", false, "list benchmarks")
	dumpLog := flag.Bool("jitlog", false, "dump the JIT log (traces and IR)")
	threshold := flag.Int("threshold", 0, "JIT hot-loop threshold override")
	profileDir := flag.String("profile", "", "write streaming-profiler artifacts (Chrome trace, folded flamegraph, interval series) to this directory")
	teleDump := flag.Bool("telemetry-dump", false, "print a final telemetry snapshot (Prometheus text format) to stderr")
	recordDir := flag.String("record", "", "record the run as a workload trace (.mtt) into this directory")
	replayFile := flag.String("replay", "", "replay a recorded workload trace file and verify it against its recorded summary")
	replayAlloc := flag.Bool("replay-alloc", false, "with -replay: drive only the heap/GC from the recorded allocation stream (dj_trace mode)")
	flag.Parse()

	// Telemetry attaches before any guest work and dumps to stderr at
	// exit, keeping stdout byte-identical to an uninstrumented run.
	var reg *telemetry.Registry
	if *teleDump {
		reg = telemetry.NewRegistry()
		harness.InstallTelemetry(reg)
	}

	if *list {
		for _, p := range bench.All() {
			sk := " "
			if p.SkSource != "" {
				sk = "s"
			}
			c := " "
			if p.Static {
				c = "c"
			}
			fmt.Printf("%-20s [%s] %s%s\n", p.Name, p.Suite, sk, c)
		}
		return
	}

	// Run writes the -jitlog dump into jitLog; report prints it last.
	var jitLog bytes.Buffer
	opt := harness.Options{Threshold: *threshold, ProfileDir: *profileDir, RecordDir: *recordDir}
	if *dumpLog {
		opt.JITLog = &jitLog
	}

	if *replayFile != "" {
		vmExplicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "vm" {
				vmExplicit = true
			}
		})
		code := runReplay(*replayFile, *vmName, vmExplicit, *replayAlloc, opt, &jitLog)
		dumpTelemetry(reg)
		os.Exit(code)
	}

	if *file != "" {
		if err := refuseForFile(opt, reg != nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runFile(*file, *vmName, *threshold)
		return
	}
	p := bench.ByName(*benchName)
	if p == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (use -list)\n", *benchName)
		os.Exit(2)
	}
	r, err := harness.Run(p, harness.VMKind(*vmName), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report(r, *profileDir, &jitLog)
	dumpTelemetry(reg)
}

// runReplay loads a recorded workload trace and re-drives it. Guest
// re-drive runs under the configuration sealed in the trace header
// (unless -vm explicitly overrides the VM, which disables
// verification: a different tier structure legitimately changes the
// counters) and is verified bit-exactly against the recorded summary
// and event stream. Alloc replay applies the recorded allocation/free
// stream straight to a fresh heap. cli is the command line's options;
// a replay takes only their artifact outputs.
func runReplay(path, vmName string, vmExplicit, allocOnly bool, cli harness.Options, jitLog *bytes.Buffer) int {
	tr, err := trace.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	p := bench.FromTrace(tr)
	kind := harness.VMKind(tr.Header.VM)
	if vmExplicit {
		kind = harness.VMKind(vmName)
	}
	opt := harness.ReplayOptions(tr)
	opt.ProfileDir, opt.RecordDir, opt.JITLog = cli.ProfileDir, cli.RecordDir, cli.JITLog
	fmt.Printf("replaying %s: %s (guest %s) recorded on %s, %d events\n",
		path, tr.Header.Name, tr.Header.Guest, tr.Header.VM, tr.Summary.Events)

	if allocOnly {
		opt.ReplayAlloc = true
		r, err := harness.Run(&p, kind, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("alloc replay: %d allocations applied\n", r.Checksum)
		fmt.Printf("gc: %d minor, %d major, %d objects allocated (%d bytes)\n",
			r.GC.Minor, r.GC.Major, r.GC.AllocObjects, r.GC.AllocBytes)
		fmt.Printf("gc work: %d instrs, %.0f cycles\n", r.Instrs, r.Cycles)
		return 0
	}

	opt.Record = true // re-record so the event streams can be compared
	r, err := harness.Run(&p, kind, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	report(r, cli.ProfileDir, jitLog)
	if vmExplicit && kind != harness.VMKind(tr.Header.VM) {
		fmt.Printf("replay: ran on %s, recorded on %s — verification skipped\n", kind, tr.Header.VM)
		return 0
	}
	if err := trace.CheckReplay(tr, r.Trace); err != nil {
		fmt.Fprintf(os.Stderr, "replay DIVERGED: %v\n", err)
		return 1
	}
	fmt.Printf("replay verified: summary and event stream reproduce the recording bit-exactly\n")
	return 0
}

// dumpTelemetry writes the registry's final exposition snapshot to
// stderr; nil (flag off) is a no-op.
func dumpTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "---- telemetry ----")
	if err := reg.WritePrometheus(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// report prints the run. profileDir is -profile's directory, the only way
// this command asks for a profile: it passed the directory, so it names
// the files.
func report(r *harness.Result, profileDir string, jitLog *bytes.Buffer) {
	fmt.Printf("benchmark: %s on %s\n", r.Bench, r.VM)
	fmt.Printf("checksum:  %d\n", r.Checksum)
	fmt.Printf("instrs:    %d\n", r.Instrs)
	fmt.Printf("cycles:    %.0f  (%.3f simulated ms @%.1fGHz)\n", r.Cycles, r.Seconds()*1000, r.ClockHz()/1e9)
	fmt.Printf("IPC:       %.2f   branch MPKI: %.2f\n", r.Total.IPC(), r.Total.MPKI())
	fmt.Printf("bytecodes: %d\n", r.Bytecodes)
	fmt.Println("phases (instructions):")
	for _, ph := range core.AllPhases() {
		c := r.Phases[ph]
		if c.Instrs == 0 {
			continue
		}
		fmt.Printf("  %-10s %12d (%5.1f%%)  IPC %.2f\n",
			ph, c.Instrs, 100*r.PhaseFraction(ph), c.IPC())
	}
	fmt.Printf("gc: %d minor, %d major, %d objects allocated (%d bytes)\n",
		r.GC.Minor, r.GC.Major, r.GC.AllocObjects, r.GC.AllocBytes)
	if r.EngStats.BaselinesCompiled > 0 {
		fmt.Printf("tier1: %d baselines compiled (%d invalidated), %d enters, %d deopts\n",
			r.EngStats.BaselinesCompiled, r.EngStats.BaselineInvalidated,
			r.EngStats.BaselineEnters, r.EngStats.BaselineDeopts)
	}
	if r.EngStats.MethodsCompiled > 0 {
		fmt.Printf("tier2: %d methods compiled (%d invalidated), %d enters, %d deopts\n",
			r.EngStats.MethodsCompiled, r.EngStats.MethodInvalidated,
			r.EngStats.MethodEnters, r.EngStats.MethodDeopts)
	}
	if r.EngStats.LoopsCompiled > 0 || r.EngStats.BridgesCompiled > 0 {
		fmt.Printf("jit: %d loops, %d bridges, %d aborts, %d ops recorded (%d removed by optimizer)\n",
			r.EngStats.LoopsCompiled, r.EngStats.BridgesCompiled, r.EngStats.Aborts,
			r.EngStats.OpsRecorded, r.EngStats.OpsRemoved)
		fmt.Printf("jit events: %d guard failures, %d deopts, %d bridge entries\n",
			r.Events.GuardFails, r.Events.Deopts, r.Events.BridgeEnters)
	}
	if r.Profile != nil {
		if err := r.Profile.Err(); err != nil {
			fmt.Printf("profile: stream error: %v\n", err)
		} else {
			fmt.Printf("profile: %d spans, %d events over %d windows\n",
				r.Profile.Stream.Spans, r.Profile.Stream.Events, len(r.Profile.Stream.Windows()))
		}
		for _, f := range harness.ProfileArtifacts(profileDir, r.Bench, r.VM) {
			fmt.Printf("profile: wrote %s\n", f)
		}
	}
	if jitLog.Len() > 0 {
		fmt.Println("---- jit log ----")
		fmt.Print(jitLog.String())
	}
}

// refuseForFile names the first flag a -file run cannot honour: it
// builds the guest VM itself, outside harness.Run, so no profiler,
// recorder, JIT log sink or telemetry flush is attached to it.
func refuseForFile(opt harness.Options, teleDump bool) error {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"profile", opt.ProfileDir != ""},
		{"record", opt.RecordDir != ""},
		{"jitlog", opt.JITLog != nil},
		{"telemetry-dump", teleDump},
	} {
		if f.set {
			return fmt.Errorf("mtjit: -file does not support -%s", f.name)
		}
	}
	return nil
}

// fileConfig is the guest configuration of a -file run: the VM table's
// row for vmName, refused unless its guest runs Python source.
func fileConfig(vmName string, threshold int) (pylang.Config, error) {
	cfg, scheme, ok := harness.GuestConfig(harness.VMKind(vmName))
	if !ok || scheme {
		return cfg, fmt.Errorf("mtjit: -file runs Python source; -vm %s does not", vmName)
	}
	cfg.Threshold = threshold
	return cfg, nil
}

func runFile(path, vmName string, threshold int) {
	cfg, err := fileConfig(vmName, threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mach := cpu.NewDefault()
	pintool.NewPhaseTracker(mach)
	vm := pylang.New(mach, cfg)
	if err := vm.LoadModule(path, string(src)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := vm.RunFunction("main")
	fmt.Print(vm.Output.String())
	fmt.Printf("main() = %s\n", vm.Format(res))
	fmt.Printf("instrs: %d  cycles: %.0f  IPC: %.2f\n",
		mach.TotalInstrs(), mach.TotalCycles(), mach.Total().IPC())
	if vm.Eng != nil {
		st := vm.Eng.Stats()
		fmt.Printf("jit: %d traces compiled\n", st.LoopsCompiled+st.BridgesCompiled)
	}
}
