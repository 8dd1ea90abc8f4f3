package sklang

import (
	"testing"

	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
	"metajit/internal/pylang"
)

func runScheme(t *testing.T, src string, cfg pylang.Config) (heap.Value, *pylang.VM) {
	t.Helper()
	vm := pylang.New(cpu.NewDefault(), cfg)
	vm.UnicodeStrings = false
	if err := Load(vm, src); err != nil {
		t.Fatalf("load: %v", err)
	}
	return vm.RunFunction("main"), vm
}

func TestReader(t *testing.T) {
	exprs, err := Read(`(define (f x) (+ x 1)) ; comment
(define (main) (f 41))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(exprs) != 2 {
		t.Fatalf("got %d top-level forms", len(exprs))
	}
	if exprs[0].Head() != "define" {
		t.Errorf("head = %q", exprs[0].Head())
	}
	if exprs[0].String() != "(define (f x) (+ x 1))" {
		t.Errorf("round trip = %s", exprs[0])
	}
}

func TestReaderErrors(t *testing.T) {
	for _, src := range []string{"(", ")", "(define (f", `"unterminated`} {
		if _, err := Read(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestBasicArithmetic(t *testing.T) {
	v, _ := runScheme(t, `
(define (main)
  (+ 1 (* 2 3) (- 10 4) (quotient 17 5) (modulo 17 5)))
`, pylang.Config{})
	if v.I != 1+6+6+3+2 {
		t.Fatalf("result = %v", v)
	}
}

func TestTailRecursionAsLoop(t *testing.T) {
	v, vm := runScheme(t, `
(define (loop i n acc)
  (if (>= i n)
      acc
      (loop (+ i 1) n (+ acc i))))

(define (main) (loop 0 5000 0))
`, pylang.Config{Engine: &mtjit.Config{Threshold: 13}})
	if v.I != 5000*4999/2 {
		t.Fatalf("result = %v", v)
	}
	// The tail call must have become a hot loop that compiled.
	if vm.Eng.Stats().LoopsCompiled == 0 {
		t.Errorf("tail-recursive loop did not compile")
	}
}

func TestVectors(t *testing.T) {
	v, _ := runScheme(t, `
(define (fill v i n)
  (if (>= i n)
      v
      (begin
        (vector-set! v i (* i i))
        (fill v (+ i 1) n))))

(define (sum v i n acc)
  (if (>= i n)
      acc
      (sum v (+ i 1) n (+ acc (vector-ref v i)))))

(define (main)
  (let ((v (make-vector 10 0)))
    (fill v 0 10)
    (+ (sum v 0 10 0) (vector-length v))))
`, pylang.Config{})
	if v.I != 285+10 {
		t.Fatalf("result = %v", v)
	}
}

func TestLetScopingAndFloats(t *testing.T) {
	v, _ := runScheme(t, `
(define (main)
  (let ((x 2.0) (y 3.0))
    (let ((x (* x y)))
      (truncate (+ (* x 10.0) (sqrt 16.0))))))
`, pylang.Config{})
	if v.I != 64 {
		t.Fatalf("result = %v", v)
	}
}

func TestNonTailRecursion(t *testing.T) {
	v, _ := runScheme(t, `
(define (fib n)
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))

(define (main) (fib 15))
`, pylang.Config{})
	if v.I != 610 {
		t.Fatalf("fib = %v", v)
	}
}

func TestSchemeJITDifferential(t *testing.T) {
	src := `
(define (kernel i n a b)
  (if (>= i n)
      (+ a b)
      (if (= (modulo i 3) 0)
          (kernel (+ i 1) n (+ a i) b)
          (kernel (+ i 1) n a (+ b (* i 2))))))

(define (main) (kernel 0 8000 0 0))
`
	vi, _ := runScheme(t, src, pylang.Config{Profile: mtjit.CustomVMProfile()})
	vj, vmj := runScheme(t, src, pylang.Config{Engine: &mtjit.Config{Threshold: 13, BridgeThreshold: 7}})
	if !vi.Eq(vj) {
		t.Fatalf("JIT %v != interp %v", vj, vi)
	}
	if vmj.Eng.Stats().LoopsCompiled == 0 {
		t.Errorf("nothing compiled")
	}
}

func TestVectorSetReturnsUnspecified(t *testing.T) {
	v, _ := runScheme(t, `
(define (main)
  (let ((v (make-vector 2 7)))
    (begin (vector-set! v 0 1) (vector-ref v 0))))
`, pylang.Config{})
	if v.I != 1 {
		t.Fatalf("result = %v", v)
	}
}

func TestStringsAndDisplay(t *testing.T) {
	_, vm := runScheme(t, `
(define (main)
  (begin (display "hello" 42) (string-length "abcd")))
`, pylang.Config{})
	if got := vm.Output.String(); got != "hello 42\n" {
		t.Errorf("output = %q", got)
	}
}
