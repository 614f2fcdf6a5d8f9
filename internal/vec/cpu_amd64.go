package vec

// hasAVX512 records, once at package init, whether the AVX-512 bodies may
// run: the CPU has AVX512F and the OS saves the opmask and full ZMM state.
// There is no setting; other CPUs run the SSE2 kernel and the Go loops.
var hasAVX512 = probeAVX512()

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS-enabled register-state mask.
func xgetbv() (eax, edx uint32)

func probeAVX512() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 { // OSXSAVE: XGETBV usable
		return false
	}
	// XCR0 bits 1, 2 (XMM, YMM state), 5, 6, 7 (opmask, ZMM0-15 upper
	// halves, ZMM16-31): the OS preserves every register the bodies touch.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<16) != 0 // AVX512F
}

// HasAVX512 reports whether this process runs the AVX-512 kernel bodies
// (the d=4 row distances here, the PCA projection in internal/pca).
func HasAVX512() bool { return hasAVX512 }
