//go:build !purego

package num

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// HaveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers: CPUID leaf 1 for OSXSAVE and AVX, XCR0 for the XMM and YMM
// state bits, and leaf 7 for AVX2. Every AVX2 body is chosen by it.
var HaveAVX2 = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}()
