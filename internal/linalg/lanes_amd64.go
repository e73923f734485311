package linalg

// cpuHasLanes reports whether the lane kernel's AVX2 body can run: CPUID
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

// cpuHasZMM reports whether lanes8x4's AVX-512 body can run: the AVX2 body
// can, leaf 7 reports AVX512F, and XCR0 enables the opmask and the ZMM state
// as well as the XMM and YMM registers.
func cpuHasZMM() bool {
	if !cpuHasLanes() {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f = 1 << 16
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // 0xE6
	return ebx7&avx512f != 0 && xgetbv0()&zmmState == zmmState
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the OS-enabled register state.
func xgetbv0() uint32

//go:noescape
func lanes8x2AVX2(a *float64, as int, x *float64, xs, xoff, n int, dst *[16]float64)

//go:noescape
func lanes8x4AVX512(a *float64, as int, x *float64, xs, xoff, n int, dst *[32]float64)

// lanes8x2 computes the eight lanes of two vectors, x and x+xoff (lanes.go).
func lanes8x2(a []float64, as int, x []float64, xs, xoff, n int, dst *[16]float64) {
	checkLanes(a, as, x, xs, xoff, n)
	lanes8x2AVX2(&a[0], as, &x[0], xs, xoff, n, dst)
}

// lanes8x4 computes the eight lanes of four vectors, x + p·xoff for p < 4
// (lanes.go): in one pass where the CPU has the ZMM body, and as two
// lanes8x2 passes, x and x+2·xoff, everywhere else.
func lanes8x4(a []float64, as int, x []float64, xs, xoff, n int, dst *[32]float64) {
	checkLanes(a, as, x, xs, 3*xoff, n)
	if useZMM {
		lanes8x4AVX512(&a[0], as, &x[0], xs, xoff, n, dst)
		return
	}
	lanes8x2AVX2(&a[0], as, &x[0], xs, xoff, n, (*[16]float64)(dst[:16]))
	lanes8x2AVX2(&a[0], as, &x[2*xoff], xs, xoff, n, (*[16]float64)(dst[16:]))
}
