package jitlog

import (
	"strings"
	"testing"

	"metajit/internal/cpu"
	"metajit/internal/mtjit"
	"metajit/internal/pylang"
)

// Build a real record by running a guest loop through the engine.
func buildEngine(t *testing.T) *mtjit.Engine {
	t.Helper()
	vm := pylang.New(cpu.NewDefault(), pylang.Config{Engine: &mtjit.Config{Threshold: 13}})
	err := vm.LoadModule("log", `
def main():
    s = 0
    for i in range(20000):
        s += i * 3
    return s
`)
	if err != nil {
		t.Fatal(err)
	}
	vm.RunFunction("main")
	if len(vm.Eng.Traces()) == 0 {
		t.Fatal("no traces compiled")
	}
	return vm.Eng
}

func TestLogStatistics(t *testing.T) {
	e := buildEngine(t)
	s := StatsOf(e)
	if s.CompiledNodes() == 0 {
		t.Errorf("CompiledNodes = 0")
	}
	var asm uint64
	for opc, n := range s.Compiled {
		asm += n * uint64(mtjit.Opcode(opc).AsmLen())
	}
	if asm < s.CompiledNodes() {
		t.Errorf("asm (%d) should be >= IR nodes (%d)", asm, s.CompiledNodes())
	}
	if s.DynamicNodes() == 0 {
		t.Errorf("no dynamic executions recorded")
	}
	for opc, n := range s.Dynamic {
		if n > 0 && s.Compiled[opc] == 0 {
			t.Errorf("%s executed %d times but was never compiled", mtjit.Opcode(opc).Name(), n)
		}
	}

	var sum float64
	for _, f := range s.Categories() {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("category fractions sum to %f", sum)
	}

	if s.Hot95 <= 0 || s.Hot95 > 1 {
		t.Errorf("Hot95 = %f", s.Hot95)
	}
	var execs []uint64
	for _, tr := range e.Traces() {
		for i, n := range tr.OpExecs() {
			if tr.Ops[i].Opc != mtjit.OpLabel {
				execs = append(execs, n)
			}
		}
	}
	if got := hotFraction(execs, 0.95); got != s.Hot95 {
		t.Errorf("hot fraction over Trace.OpExecs = %f, Stats derived %f", got, s.Hot95)
	}
	if hotFraction(execs, 0.5) > s.Hot95 {
		t.Errorf("smaller share must need fewer nodes")
	}

	if s.Compiled[mtjit.OpIntAddOvf] == 0 || mtjit.OpIntAddOvf.AsmLen() != 1 {
		t.Errorf("int_add_ovf: %d compiled, asm %d", s.Compiled[mtjit.OpIntAddOvf], mtjit.OpIntAddOvf.AsmLen())
	}
	if s.Compiled[mtjit.OpJump] == 0 {
		t.Errorf("no jump compiled")
	}

	dump := Dump(e)
	if !strings.Contains(dump, "loop") || !strings.Contains(dump, "int_add_ovf") {
		t.Errorf("dump missing content:\n%s", dump)
	}
}

func TestEmptyLogSafe(t *testing.T) {
	e := pylang.New(cpu.NewDefault(), pylang.Config{Engine: &mtjit.Config{}}).Eng
	if d := Dump(e); d != "" {
		t.Errorf("empty dump = %q", d)
	}
	s := StatsOf(e)
	if s.CompiledNodes() != 0 || s.DynamicNodes() != 0 {
		t.Errorf("empty log nonzero")
	}
	if s.Hot95 != 0 {
		t.Errorf("empty Hot95 = %f", s.Hot95)
	}
	if br := s.Categories(); br != [mtjit.NumCategories]float64{} {
		t.Errorf("empty breakdown = %v", br)
	}
}
