// Package static provides the statically-compiled-language reference
// implementations (the C/C++ rows of Table II): the same algorithms as the
// guest benchmarks, executed natively in Go while emitting a native-style
// instruction stream — unboxed arithmetic, direct branches, no dispatch —
// into the simulated CPU.
package static

import (
	"math"

	"metajit/internal/cpu"
	"metajit/internal/isa"
)

// Kernel is one statically-compiled benchmark.
type Kernel struct {
	Name string
	Run  func(s *cpu.Machine) int64
}

// ByName returns the kernel for a benchmark name, or nil.
func ByName(name string) *Kernel {
	for i := range kernels {
		if kernels[i].Name == name {
			return &kernels[i]
		}
	}
	return nil
}

// All returns every kernel.
func All() []Kernel { return append([]Kernel(nil), kernels...) }

var kernels = []Kernel{
	{Name: "spectral_norm", Run: runSpectral},
	{Name: "spectralnorm", Run: runSpectral},
	{Name: "float", Run: runFloat},
	{Name: "fannkuch", Run: runFannkuch},
	{Name: "nbody", Run: runNbody},
	{Name: "nbody_modified", Run: runNbody},
	{Name: "binarytrees", Run: runBinarytrees},
	{Name: "fasta", Run: runFasta},
	{Name: "mandelbrot", Run: runMandelbrot},
}

// cost helpers: a statically compiled op is 1 instruction; loop overhead
// is a compare+branch per iteration.
type emitter struct {
	s    *cpu.Machine
	site isa.Site
}

func newEmitter(s *cpu.Machine) *emitter {
	// A fixed PC keeps kernel runs deterministic and independent of how
	// many sites other runs allocated before this one; kernels never
	// share a machine, so reuse cannot alias.
	return &emitter{s: s, site: isa.Site(isa.RegionStatic + 0x100)}
}

func (e *emitter) alu(n int)       { e.s.Ops(isa.ALU, n) }
func (e *emitter) fpu(n int)       { e.s.Ops(isa.FPU, n) }
func (e *emitter) fmul(n int)      { e.s.Ops(isa.FMul, n) }
func (e *emitter) fdiv(n int)      { e.s.Ops(isa.FDiv, n) }
func (e *emitter) load(a uint64)   { e.s.Load(isa.RegionStatic<<8 + a) }
func (e *emitter) store(a uint64)  { e.s.Store(isa.RegionStatic<<8 + a) }
func (e *emitter) loop(taken bool) { e.s.Ops(isa.ALU, 1); e.s.Branch(e.site.PC(), taken) }

func runSpectral(s *cpu.Machine) int64 {
	e := newEmitter(s)
	n := 60
	u := make([]float64, n)
	v := make([]float64, n)
	w := make([]float64, n)
	for i := range u {
		u[i] = 1.0
	}
	evalA := func(i, j int) float64 {
		e.alu(4)
		e.fdiv(1)
		return 1.0 / float64((i+j)*(i+j+1)/2+i+1)
	}
	aTimesU := func(src, dst []float64, transpose bool) {
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				var a float64
				if transpose {
					a = evalA(j, i)
				} else {
					a = evalA(i, j)
				}
				e.load(uint64(j) * 8)
				e.fmul(1)
				e.fpu(1)
				sum += a * src[j]
				e.loop(j < n-1)
			}
			e.store(uint64(i) * 8)
			dst[i] = sum
			e.loop(i < n-1)
		}
	}
	for it := 0; it < 10; it++ {
		aTimesU(u, w, false)
		aTimesU(w, v, true)
		aTimesU(v, w, false)
		aTimesU(w, u, true)
		e.loop(it < 9)
	}
	vbv, vv := 0.0, 0.0
	for i := 0; i < n; i++ {
		e.load(uint64(i) * 8)
		e.fmul(2)
		e.fpu(2)
		vbv += u[i] * v[i]
		vv += v[i] * v[i]
		e.loop(i < n-1)
	}
	e.fdiv(2)
	return int64(math.Sqrt(vbv/vv) * 1e6)
}

func runFloat(s *cpu.Machine) int64 {
	e := newEmitter(s)
	n := 4000
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	sinApprox := func(i int) float64 {
		e.fmul(5)
		e.fpu(6)
		e.fdiv(1)
		x := float64(i) * 0.1
		x = x - float64(int(x/6.283185))*6.283185
		return x - x*x*x/6.0 + x*x*x*x*x/120.0
	}
	cosApprox := func(i int) float64 {
		e.fmul(4)
		e.fpu(5)
		e.fdiv(1)
		x := float64(i) * 0.1
		x = x - float64(int(x/6.283185))*6.283185
		return 1.0 - x*x/2.0 + x*x*x*x/24.0
	}
	for i := 0; i < n; i++ {
		x := sinApprox(i)
		y := cosApprox(i) * 2.0
		z := x + y
		norm := math.Sqrt(x*x + y*y + z*z)
		e.fmul(4)
		e.fpu(3)
		e.fdiv(4)
		xs[i], ys[i], zs[i] = x/norm, y/norm, z/norm
		e.store(uint64(i) * 24)
		e.loop(i < n-1)
	}
	mx, my, mz := xs[0], ys[0], zs[0]
	for i := 0; i < n; i++ {
		e.load(uint64(i) * 24)
		e.alu(3)
		if xs[i] > mx {
			mx = xs[i]
		}
		if ys[i] > my {
			my = ys[i]
		}
		if zs[i] > mz {
			mz = zs[i]
		}
		e.loop(i < n-1)
	}
	return int64(mx*1000) + int64(my*100) + int64(mz*10)
}

func runFannkuch(s *cpu.Machine) int64 {
	e := newEmitter(s)
	n := 7
	perm1 := make([]int, n)
	count := make([]int, n)
	perm := make([]int, n)
	for i := range perm1 {
		perm1[i] = i
	}
	maxFlips, checksum, sign := 0, 0, 1
	for {
		if perm1[0] != 0 {
			copy(perm, perm1)
			e.alu(n)
			flips := 0
			for k := perm[0]; k != 0; k = perm[0] {
				for lo, hi := 0, k; lo < hi; lo, hi = lo+1, hi-1 {
					e.load(uint64(lo) * 8)
					e.load(uint64(hi) * 8)
					e.store(uint64(lo) * 8)
					e.store(uint64(hi) * 8)
					perm[lo], perm[hi] = perm[hi], perm[lo]
					e.loop(lo+1 < hi-1)
				}
				flips++
				e.loop(perm[0] != 0)
			}
			if flips > maxFlips {
				maxFlips = flips
			}
			checksum += sign * flips
			e.alu(4)
		}
		sign = -sign
		i := 1
		for {
			if i >= n {
				return int64(maxFlips)*1000000 + int64(checksum%1000)
			}
			first := perm1[0]
			for j := 0; j < i; j++ {
				e.load(uint64(j) * 8)
				e.store(uint64(j) * 8)
				perm1[j] = perm1[j+1]
				e.loop(j < i-1)
			}
			perm1[i] = first
			count[i]++
			e.alu(4)
			if count[i] <= i {
				break
			}
			count[i] = 0
			i++
			e.loop(true)
		}
	}
}

func runNbody(s *cpu.Machine) int64 {
	e := newEmitter(s)
	n := 5
	xs := []float64{0, 4.84143144246472090, 8.34336671824457987, 12.894369562139131, 15.379697114850917}
	ys := []float64{0, -1.16032004402742839, 4.12479856412430479, -15.111151401698631, -25.919314609987964}
	zs := []float64{0, -0.103622044471123109, -0.403523417114321381, -0.223307578892655734, 0.179258772950371181}
	vxs := []float64{0, 0.00166007664274403694, -0.00276742510726862411, 0.00296460137564761618, 0.00288930532531037084}
	vys := []float64{0, 0.00769901118419740425, 0.00499852801234917238, 0.00237847173959480950, 0.00114714441179217817}
	vzs := []float64{0, -0.0000690460016972063023, 0.0000230417297573763929, -0.0000296589568540237556, -0.000039021756012039}
	ms := []float64{39.47841760435743, 0.03769367487038949, 0.011286326131968767, 0.0017237240570597112, 0.00020336868699246304}
	for it := 0; it < 600; it++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx, dy, dz := xs[i]-xs[j], ys[i]-ys[j], zs[i]-zs[j]
				d2 := dx*dx + dy*dy + dz*dz
				mag := 0.01 * math.Pow(d2, -1.5)
				e.load(uint64(j) * 48)
				e.fmul(10)
				e.fpu(12)
				e.fdiv(2) // pow inlined by the static compiler
				mi, mj := ms[i]*mag, ms[j]*mag
				vxs[i] -= dx * mj
				vys[i] -= dy * mj
				vzs[i] -= dz * mj
				vxs[j] += dx * mi
				vys[j] += dy * mi
				vzs[j] += dz * mi
				e.store(uint64(j) * 48)
				e.loop(j < n-1)
			}
			e.loop(i < n-1)
		}
		for i := 0; i < n; i++ {
			xs[i] += 0.01 * vxs[i]
			ys[i] += 0.01 * vys[i]
			zs[i] += 0.01 * vzs[i]
			e.fmul(3)
			e.fpu(3)
			e.store(uint64(i) * 24)
			e.loop(i < n-1)
		}
		e.loop(it < 599)
	}
	energy := 0.0
	for i := 0; i < n; i++ {
		energy += 0.5 * ms[i] * (vxs[i]*vxs[i] + vys[i]*vys[i] + vzs[i]*vzs[i])
		e.fmul(4)
		e.fpu(3)
		for j := i + 1; j < n; j++ {
			dx, dy, dz := xs[i]-xs[j], ys[i]-ys[j], zs[i]-zs[j]
			energy -= ms[i] * ms[j] / math.Sqrt(dx*dx+dy*dy+dz*dz)
			e.fmul(5)
			e.fpu(5)
			e.fdiv(2)
			e.loop(j < n-1)
		}
		e.loop(i < n-1)
	}
	return int64(energy * 1e6)
}

type stNode struct {
	left, right *stNode
}

func runBinarytrees(s *cpu.Machine) int64 {
	e := newEmitter(s)
	var makeTree func(depth int) *stNode
	makeTree = func(depth int) *stNode {
		// malloc + two stores; statically compiled allocation is a
		// handful of instructions.
		e.alu(4)
		e.store(0)
		if depth == 0 {
			return &stNode{}
		}
		return &stNode{left: makeTree(depth - 1), right: makeTree(depth - 1)}
	}
	var check func(n *stNode) int64
	check = func(n *stNode) int64 {
		e.load(0)
		e.alu(2)
		if n.left == nil {
			return 1
		}
		return 1 + check(n.left) + check(n.right)
	}
	maxDepth := 10
	total := check(makeTree(maxDepth + 1))
	longLived := makeTree(maxDepth)
	for depth := 4; depth <= maxDepth; depth += 2 {
		iterations := 1 << (maxDepth - depth + 4)
		partial := int64(0)
		for i := 0; i < iterations; i++ {
			partial += check(makeTree(depth))
			e.loop(i < iterations-1)
		}
		total += partial % 1000000007
	}
	total += check(longLived)
	return total % 1000000007
}

func runFasta(s *cpu.Machine) int64 {
	e := newEmitter(s)
	iub := "acgtBDHKMNRSVWY"
	seed := int64(42)
	outLen, checksum := int64(0), int64(0)
	var line [60]byte
	ll := 0
	for i := 0; i < 12000; i++ {
		seed = (seed*3877 + 29573) % 139968
		idx := seed * int64(len(iub)) / 139968
		e.alu(6)
		e.load(uint64(idx))
		line[ll] = iub[idx]
		ll++
		if ll == 60 {
			outLen += 60
			checksum = (checksum*31 + int64(line[0]) + int64(line[59])) % 1000000007
			e.alu(5)
			ll = 0
		}
		e.loop(i < 11999)
	}
	alu := "GGCCGGGCGCGGTGGCTCACGCCTGTAATCCCAGCACTTTGG"
	pos := 0
	repLen := 0
	for i := 0; i < 200; i++ {
		_ = alu[pos%len(alu)]
		e.alu(3)
		e.load(uint64(pos % len(alu)))
		pos += 7
		repLen++
		e.loop(i < 199)
	}
	checksum = (checksum + int64(repLen)) % 1000000007
	return checksum + outLen
}

func runMandelbrot(s *cpu.Machine) int64 {
	e := newEmitter(s)
	size := 80
	bits, checksum := int64(0), int64(0)
	for y := 0; y < size; y++ {
		ci := 2.0*float64(y)/float64(size) - 1.0
		for x := 0; x < size; x++ {
			cr := 2.0*float64(x)/float64(size) - 1.5
			zr, zi := 0.0, 0.0
			inside := true
			for i := 0; i < 50; i++ {
				zr2, zi2 := zr*zr, zi*zi
				e.fmul(3)
				e.fpu(3)
				if zr2+zi2 > 4.0 {
					inside = false
					e.loop(false)
					break
				}
				zi = 2.0*zr*zi + ci
				zr = zr2 - zi2 + cr
				e.loop(i < 49)
			}
			if inside {
				bits++
			}
			e.alu(2)
			e.loop(x < size-1)
		}
		checksum = (checksum*31 + bits) % 1000000007
		e.alu(3)
		e.loop(y < size-1)
	}
	return checksum
}
