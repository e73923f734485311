package linalg

// cpuHasLanes reports whether the lane kernel's assembly body can run: CPUID
// leaf 7 exists, the CPU has AVX and the OS saves its state (OSXSAVE, and
// XCR0 enables the XMM and YMM registers), and leaf 7 reports AVX2.
func cpuHasLanes() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xgetbv0()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the OS-enabled register state.
func xgetbv0() uint32

//go:noescape
func lanes8x2AVX2(a *float64, as int, x *float64, xs, xoff, n int, dst *[16]float64)

//go:noescape
func lanes8x1AVX2(a *float64, as int, x *float64, xs, n int, dst *[8]float64)

// lanes8x2 computes the eight lanes of two vectors, x and x+xoff (lanes.go).
func lanes8x2(a []float64, as int, x []float64, xs, xoff, n int, dst *[16]float64) {
	checkLanes(a, as, x, xs, xoff, n)
	lanes8x2AVX2(&a[0], as, &x[0], xs, xoff, n, dst)
}

// lanes8x1 computes the eight lanes of one vector (lanes.go).
func lanes8x1(a []float64, as int, x []float64, xs, n int, dst *[8]float64) {
	checkLanes(a, as, x, xs, 0, n)
	lanes8x1AVX2(&a[0], as, &x[0], xs, n, dst)
}
