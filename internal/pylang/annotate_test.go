package pylang

import (
	"testing"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/mtjit"
)

// The paper's application-level annotation API: guest annotations survive
// into JIT-compiled code and are observable at the machine level.
func TestApplicationAnnotationsSurviveJIT(t *testing.T) {
	src := `
def main():
    total = 0
    for i in range(5000):
        annotate("iteration", i)
        total += i
    annotate("done")
    return total
`
	vm := New(cpu.NewDefault(), Config{Engine: &mtjit.Config{Threshold: 13}})
	var iterCount, doneCount int
	reg := vm.Mach.Registry()
	vm.Mach.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) {
		switch reg.Name(a.Tag) {
		case "app.iteration":
			iterCount++
		case "app.done":
			doneCount++
		}
	}))
	if err := vm.LoadModule("ann", src); err != nil {
		t.Fatal(err)
	}
	res := vm.RunFunction("main")
	if res.I != 5000*4999/2 {
		t.Fatalf("result = %v", res)
	}
	if iterCount != 5000 {
		t.Fatalf("iteration annotations = %d, want 5000 (lost in JIT code?)", iterCount)
	}
	if doneCount != 1 {
		t.Fatalf("done annotations = %d", doneCount)
	}
	if vm.Eng.Stats().LoopsCompiled == 0 {
		t.Fatalf("loop did not compile; test does not exercise JIT lowering")
	}
}
