package pylang

import (
	"testing"

	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
)

func TestAugmentedAssignTargets(t *testing.T) {
	v, _ := interp(t, `
class Box:
    def __init__(self):
        self.v = 10

def main():
    b = Box()
    b.v += 5
    b.v *= 2
    xs = [1, 2, 3]
    xs[1] += 100
    xs[2] -= 1
    d = {"k": 7}
    d["k"] += 1
    return b.v * 10000 + xs[1] * 10 + xs[2] + d["k"] * 100000
`)
	wantInt(t, v, 30*10000+102*10+2+8*100000)
}

func TestSlicesEdgeCases(t *testing.T) {
	v, _ := interp(t, `
def main():
    xs = [0, 1, 2, 3, 4, 5]
    a = xs[2:]
    b = xs[:3]
    c = xs[1:5]
    s = "hello world"
    t1 = s[6:]
    t2 = s[:5]
    total = len(a) * 100 + len(b) * 10 + len(c)
    if t1 == "world" and t2 == "hello":
        total += 1000
    return total
`)
	wantInt(t, v, 400+30+4+1000)
}

func TestDictInsertionOrderIteration(t *testing.T) {
	_, vm := interp(t, `
def main():
    d = {}
    d["z"] = 1
    d["a"] = 2
    d["m"] = 3
    out = []
    for k in d:
        out.append(k)
    print("-".join(out))
    return 0
`)
	if got := vm.Output.String(); got != "z-a-m\n" {
		t.Fatalf("dict iteration order = %q (must be insertion order)", got)
	}
}

func TestStringMethodsExtra(t *testing.T) {
	v, _ := interp(t, `
def main():
    s = "  Hello World  "
    total = 0
    if s.strip() == "Hello World":
        total += 1
    if "Hello World".startswith("Hello"):
        total += 10
    if "Hello World".endswith("rld"):
        total += 100
    if "ABC".lower() == "abc" and "abc".upper() == "ABC":
        total += 1000
    if "a-b-c".split("-")[1] == "b":
        total += 10000
    if "xyz".encode_ascii() == "xyz":
        total += 100000
    return total
`)
	wantInt(t, v, 111111)
}

func TestWhileElseNotSupported(t *testing.T) {
	vm := newTestVM()
	if err := vm.LoadModule("x", "while True:\n    pass\nelse:\n    pass\n"); err == nil {
		t.Errorf("while/else should be a syntax error in this subset")
	}
}

func newTestVM() *VM {
	return New(cpu.NewDefault(), Config{})
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"break\n",
		"continue\n",
		"def f():\n    def g():\n        pass\n",
		"a, b, c = 1, 2, 3\n", // only 2-element unpack
		"x[0] ** = 2\n",
	}
	for _, src := range cases {
		vm := newTestVM()
		if err := vm.LoadModule("bad", src); err == nil {
			t.Errorf("no compile error for %q", src)
		}
	}
}

// Further JIT differentials covering paths the first batch missed.
var moreDifferential = map[string]string{
	"str_building_hot": `
def main():
    total = 0
    for i in range(400):
        s = "x" + str(i % 100)
        if s.endswith("7"):
            total += len(s)
    return total
`,
	"dict_churn": `
def main():
    d = {}
    for i in range(1500):
        d[i % 97] = i
        if i % 5 == 0:
            v = d.get(i % 97, -1)
            if v != i:
                return -1
    total = 0
    for k in d:
        total += d[k]
    return total
`,
	"deep_calls": `
def f1(x):
    return x + 1

def f2(x):
    return f1(x) * 2

def f3(x):
    return f2(x) + f1(x)

def main():
    s = 0
    for i in range(1200):
        s = (s + f3(i % 50)) % 999983
    return s
`,
	"nested_loop_bridge": `
def main():
    total = 0
    for i in range(120):
        inner = 0
        for j in range(120):
            inner += j ^ i
        total = (total + inner) % 999983
    return total
`,
	"called_loop_call_assembler": `
def kernel(i):
    inner = 0
    for j in range(80):
        inner += j ^ i
    return inner

def main():
    total = 0
    for i in range(200):
        total = (total + kernel(i)) % 999983
    return total
`,
	"tuple_swap_kernel": `
def main():
    a = 1
    b = 2
    s = 0
    for i in range(2000):
        a, b = b, (a + b) % 9973
        s = (s + a) % 999983
    return s
`,
	"bool_heavy": `
def main():
    t = 0
    for i in range(3000):
        c = i % 2 == 0 and i % 3 != 0 or i % 7 == 0
        if c:
            t += 1
        if not c and i % 11 == 0:
            t += 100
    return t
`,
	"abs_min_max": `
def main():
    s = 0
    for i in range(2000):
        s += abs(1000 - i) + min(i, 500) + max(i % 7, 3)
    return s
`,
	"float_to_int_mix": `
def main():
    s = 0
    x = 0.0
    for i in range(2500):
        x += 1.7
        s += int(x) % 10
        if x > 1000.0:
            x = x / 2.0
    return s
`,
}

func TestMoreJITDifferentials(t *testing.T) {
	for name, src := range moreDifferential {
		t.Run(name, func(t *testing.T) {
			vi, _ := interp(t, src)
			vj, vmj := jitted(t, src)
			if !vi.Eq(vj) {
				t.Fatalf("JIT %v != interp %v", vj, vi)
			}
			if vmj.Eng.Stats().LoopsCompiled == 0 {
				t.Errorf("nothing compiled")
			}
		})
	}
}

func TestCalledLoopProducesCallAssembler(t *testing.T) {
	// A hot loop whose body calls a function containing its own compiled
	// loop: the outer trace must end in call_assembler into the inner
	// loop's assembly.
	_, vm := jitted(t, moreDifferential["called_loop_call_assembler"])
	found := false
	for _, tr := range vm.Eng.Traces() {
		for i := range tr.Ops {
			if tr.Ops[i].Opc == mtjit.OpCallAssembler {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("called inner loop should produce call_assembler transfers")
	}
}

func TestSameFrameNestProducesBridge(t *testing.T) {
	// Same-frame nested loops compile as inner-loop trace + an exit
	// bridge that carries the outer body and jumps back in — the whole
	// nest stays in JIT code (PyPy's behavior for simple nests).
	_, vm := jitted(t, moreDifferential["nested_loop_bridge"])
	bridges := 0
	backJumps := 0
	for _, tr := range vm.Eng.Traces() {
		if tr.Bridge {
			bridges++
			for i := range tr.Ops {
				if tr.Ops[i].Opc == mtjit.OpJump && tr.Ops[i].Target != nil {
					backJumps++
				}
			}
		}
	}
	if bridges == 0 || backJumps == 0 {
		t.Errorf("expected exit bridge jumping back into the loop (bridges=%d backJumps=%d)",
			bridges, backJumps)
	}
}

func TestTraceTooLongBlacklists(t *testing.T) {
	// A loop whose body inlines a huge recursion exceeds the trace limit
	// and must fall back to interpretation with correct results.
	src := `
def boom(d):
    if d == 0:
        return 1
    return boom(d - 1) + boom(d - 1)

def main():
    s = 0
    for i in range(100):
        s += boom(9)
    return s
`
	vj, vmj := jitted(t, src)
	wantInt(t, vj, 100*512)
	if vmj.Eng.Stats().AbortsTooLong == 0 {
		t.Errorf("expected trace-too-long aborts, stats: %+v", vmj.Eng.Stats())
	}
}

func TestJITWithTinyNurseryStress(t *testing.T) {
	hc := heap.DefaultConfig()
	hc.NurserySize = 8 << 10
	hc.MajorThreshold = 64 << 10
	src := `
class P:
    def __init__(self, a, b):
        self.a = a
        self.b = b

def main():
    keep = []
    s = 0
    for i in range(3000):
        p = P(i, i * 2)
        s = (s + p.a + p.b) % 999983
        if i % 100 == 0:
            keep.append(p)
    for p in keep:
        s = (s + p.a) % 999983
    return s
`
	v1, _ := runProgram(t, src, Config{Engine: &mtjit.Config{Threshold: 13}, HeapConfig: &hc})
	v2, _ := runProgram(t, src, Config{Profile: mtjit.ReferenceProfile(), HeapConfig: &hc})
	if !v1.Eq(v2) {
		t.Fatalf("GC-stressed JIT run differs: %v vs %v", v1, v2)
	}
}

func TestBigintStringAndDivmodHot(t *testing.T) {
	src := `
def main():
    x = 1
    check = 0
    for i in range(1, 60):
        x = x * i
    s = str(x)
    q, r = divmod(x, 997)
    return len(s) * 1000 + r
`
	vi, _ := interp(t, src)
	vj, _ := jitted(t, src)
	if !vi.Eq(vj) {
		t.Fatalf("bigint results differ: %v vs %v", vi, vj)
	}
	if vi.Kind != heap.KindInt || vi.I < 1000 {
		t.Fatalf("suspicious result %v", vi)
	}
}

func TestFrameworkVsReferenceSameOutput(t *testing.T) {
	src := `
def main():
    out = []
    for i in range(5):
        out.append(str(i * i))
    print(",".join(out))
    return 0
`
	_, vmR := runProgram(t, src, Config{Profile: mtjit.ReferenceProfile()})
	_, vmF := runProgram(t, src, Config{})
	if vmR.Output.String() != vmF.Output.String() {
		t.Fatalf("outputs differ: %q vs %q", vmR.Output.String(), vmF.Output.String())
	}
	if vmR.Output.String() != "0,1,4,9,16\n" {
		t.Fatalf("output = %q", vmR.Output.String())
	}
}

// Regression: deoptimization inside an inlined __init__ frame must rebuild
// the constructor-return semantics (the instance, not None, reaches the
// caller). This exact pattern miscompiled binarytrees before FrameSnap
// carried the Ctor flag.
func TestDeoptInsideConstructor(t *testing.T) {
	src := `
class Node:
    def __init__(self, v):
        if v % 23 == 0:
            self.kind = "special"
        else:
            self.kind = "plain"
        self.v = v

def main():
    specials = 0
    total = 0
    for i in range(2000):
        n = Node(i)
        if n.kind == "special":
            specials += 1
        total += n.v % 7
    return specials * 100000 + total
`
	vi, _ := interp(t, src)
	vj, vmj := jitted(t, src)
	if !vi.Eq(vj) {
		t.Fatalf("ctor deopt broke results: %v vs %v", vj, vi)
	}
	if vmj.Eng.Stats().LoopsCompiled == 0 {
		t.Fatalf("loop did not compile")
	}
}

// Failure injection: a guard that fails with a different outcome on every
// iteration (no bridge can stabilize the first trace) must stay correct
// through trace->bridge->bridge chains.
func TestGuardStormStaysCorrect(t *testing.T) {
	src := `
def main():
    s = 0
    seed = 1
    for i in range(4000):
        seed = (seed * 48271) % 2147483647
        k = seed % 5
        if k == 0:
            s += 1
        elif k == 1:
            s += 20
        elif k == 2:
            s += 300
        elif k == 3:
            s += 4000
        else:
            s += 50000
    return s
`
	vi, _ := interp(t, src)
	vj, vmj := jitted(t, src)
	if !vi.Eq(vj) {
		t.Fatalf("guard storm broke results: %v vs %v", vj, vi)
	}
	if vmj.Eng.Stats().BridgesCompiled < 2 {
		t.Errorf("expected several bridges, got %d", vmj.Eng.Stats().BridgesCompiled)
	}
}

// TestRootsOrderTracksNewKeys: Roots keeps its sorted visit orders between
// collections, so a global, an interned string, a class or a method that
// appears between two collections has to be visited by the second, and at
// the position a fresh sort would give it — promotion order decides
// simulated addresses.
func TestRootsOrderTracksNewKeys(t *testing.T) {
	_, vm := interp(t, `
class B:
    def m(self):
        return 1

def main():
    return B().m()
`)
	order := func() []*heap.Obj {
		var out []*heap.Obj
		vm.Roots(func(o *heap.Obj) { out = append(out, o) })
		return out
	}
	before := order() // what a first collection leaves cached

	added := map[string]*heap.Obj{
		"global":   vm.H.AllocObj(vm.FuncShape, 0),
		"interned": vm.Intern("\x00 sorts first"),
		"method":   vm.H.AllocObj(vm.FuncShape, 0),
		"class":    vm.H.AllocObj(vm.ClassShape, 0),
	}
	vm.SetGlobal("A_sorts_before_B", heap.RefVal(added["global"]))
	for _, c := range vm.classes {
		c.Methods["a_sorts_before_m"] = added["method"]
	}
	late := &Class{Name: "Late", Shape: vm.H.NewShape("Late", 0), obj: added["class"]}
	vm.classes[late.Shape] = late

	cached := order()
	vm.globalKeys, vm.internedKeys, vm.builtinKeys, vm.classOrder = nil, nil, nil, nil
	for _, c := range vm.classes {
		c.methodKeys = nil
	}
	fresh := order()

	if len(cached) != len(before)+len(added) {
		t.Fatalf("second collection visited %d roots, want %d + %d new", len(cached), len(before), len(added))
	}
	if len(fresh) != len(cached) {
		t.Fatalf("cached orders visit %d roots, fresh sorts %d", len(cached), len(fresh))
	}
	for i := range fresh {
		if cached[i] != fresh[i] {
			t.Fatalf("root %d differs between the cached orders and a fresh sort", i)
		}
	}
	pos := func(o *heap.Obj) int {
		for i, r := range cached {
			if r == o {
				return i
			}
		}
		t.Fatalf("a root added between collections was not visited")
		return -1
	}
	classB := vm.globals["B"].O
	if g, b := pos(added["global"]), pos(classB); g > b {
		t.Errorf("new global visited at %d, after global B at %d", g, b)
	}
	if m, b := pos(added["method"]), pos(classB.Native.(*Class).Methods["m"]); m > b {
		t.Errorf("new method visited at %d, after method m at %d", m, b)
	}
}
