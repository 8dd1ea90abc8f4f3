// Schemeloops: the two-language story — run the same algorithm as a
// Scheme-guest program (tail recursion compiled to loops, as Pycket does)
// and as a Python-guest program, on the same meta-tracing framework, and
// compare what the JIT sees.
package main

import (
	"fmt"

	"metajit/internal/cpu"
	"metajit/internal/mtjit"
	"metajit/internal/pintool"
	"metajit/internal/pylang"
	"metajit/internal/sklang"
)

const schemeSrc = `
(define (sum-squares i n acc)
  (if (>= i n)
      acc
      (sum-squares (+ i 1) n (+ acc (* i i)))))

(define (main) (sum-squares 0 100000 0))
`

const pythonSrc = `
def main():
    acc = 0
    for i in range(100000):
        acc += i * i
    return acc
`

func run(label string, load func(vm *pylang.VM) error, scheme bool) {
	mach := cpu.NewDefault()
	pintool.NewPhaseTracker(mach)
	jit := mtjit.DefaultConfig()
	vm := pylang.New(mach, pylang.Config{Engine: &jit})
	vm.UnicodeStrings = !scheme
	if err := load(vm); err != nil {
		panic(err)
	}
	res := vm.RunFunction("main")
	traces := vm.Eng.Traces()
	fmt.Printf("%-8s main() = %-14s %8.2fM instrs, %d traces",
		label, vm.Format(res), float64(mach.TotalInstrs())/1e6, len(traces))
	if len(traces) > 0 {
		fmt.Printf(" (first trace: %d IR ops)", traces[0].NewOpsCount())
	}
	fmt.Println()
}

func main() {
	run("scheme", func(vm *pylang.VM) error { return sklang.Load(vm, schemeSrc) }, true)
	run("python", func(vm *pylang.VM) error { return vm.LoadModule("ex", pythonSrc) }, false)
	fmt.Println("\nboth guests drive the same meta-tracing engine; the Scheme")
	fmt.Println("front end exposes loops as tail self-calls (Pycket-style merge")
	fmt.Println("points at function entry), the Python front end as bytecode")
	fmt.Println("loop headers — the traces converge to near-identical kernels.")
}
