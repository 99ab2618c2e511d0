package cpu

// cpuid executes CPUID with EAX = leaf and ECX = sub (cpu_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the state components the OS saves
// (cpu_amd64.s). Only call it where CPUID.1:ECX has OSXSAVE.
func xgetbv0() uint32

func probe() (avx, avx2 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avxBit = 1 << 27, 1 << 28
	if ecx1&(osxsave|avxBit) != osxsave|avxBit {
		return false, false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the YMM upper halves.
	if xgetbv0()&6 != 6 {
		return false, false
	}
	if maxLeaf < 7 {
		return true, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return true, ebx7&(1<<5) != 0
}
