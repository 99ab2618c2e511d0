package cpu

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// Where the kernel lists avx or avx2 among the CPU's flags, the probe must
// report it, or the packed kernels never run. The kernels' bit-exactness
// tests cannot see this: the Go loops are their oracles, so a wrong CPUID
// or XGETBV check that falls back to the Go loop passes them all, only
// several times slower.
func TestProbeMatchesCPUFlags(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		f := strings.Fields(flags)
		if slices.Contains(f, "avx") && !AVX {
			t.Error("the CPU lists avx but the probe reports none")
		}
		if slices.Contains(f, "avx2") && !AVX2 {
			t.Error("the CPU lists avx2 but the probe reports none")
		}
		if AVX2 && !AVX {
			t.Error("AVX2 reported without AVX")
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
