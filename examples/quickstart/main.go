// Quickstart: build a simulated meta-tracing VM, run a Python-guest
// program on it, and inspect cross-layer measurements — the one-minute
// tour of the library.
package main

import (
	"fmt"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/mtjit"
	"metajit/internal/pintool"
	"metajit/internal/pylang"
)

const program = `
def fib_sum(n):
    a = 0
    b = 1
    total = 0
    for i in range(n):
        t = (a + b) % 1000000007
        a = b
        b = t
        total = (total + a) % 1000000007
    return total

def main():
    return fib_sum(200000)
`

func main() {
	// A simulated Haswell-class core.
	mach := cpu.NewDefault()

	// The "PinTool": intercepts cross-layer annotations at the machine
	// level and reconstructs framework phases.
	pintool.NewPhaseTracker(mach)
	meter := pintool.NewWorkMeter(mach, 0)

	// A framework VM (RPython analog) with the meta-tracing JIT on.
	jit := mtjit.DefaultConfig()
	vm := pylang.New(mach, pylang.Config{Engine: &jit})

	if err := vm.LoadModule("quickstart", program); err != nil {
		panic(err)
	}
	result := vm.RunFunction("main")

	fmt.Printf("main() = %s\n", vm.Format(result))
	fmt.Printf("guest bytecodes executed: %d\n", meter.Bytecodes)
	fmt.Printf("simulated instructions:   %d\n", mach.TotalInstrs())
	fmt.Printf("simulated cycles:         %.0f (IPC %.2f)\n",
		mach.TotalCycles(), mach.Total().IPC())

	fmt.Println("\nwhere did the time go?")
	for _, ph := range core.AllPhases() {
		c := mach.PhaseCounters(ph)
		if c.Instrs == 0 {
			continue
		}
		fmt.Printf("  %-10s %6.2f%% of instructions (IPC %.2f)\n",
			ph, 100*float64(c.Instrs)/float64(mach.TotalInstrs()), c.IPC())
	}

	// The engine keeps every trace it compiled, as RPython's JIT does.
	traces := vm.Eng.Traces()
	fmt.Printf("\nthe JIT compiled %d trace(s):\n", len(traces))
	for _, t := range traces {
		fmt.Printf("  %s %d: %d IR ops, executed %d times\n",
			t.Kind(), t.ID, t.NewOpsCount(), t.ExecCount)
	}
}
