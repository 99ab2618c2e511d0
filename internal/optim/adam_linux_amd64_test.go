package optim

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// Where the kernel lists avx among the CPU's flags, adamRange must take the
// packed body. The bit-exactness tests cannot see this: adamGo is their
// oracle, so a wrong CPUID or XGETBV check that falls back to the Go loop
// passes them all, only several times slower.
func TestPackedKernelSelected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if slices.Contains(strings.Fields(flags), "avx") && !hasAVX {
			t.Fatal("the CPU lists avx but adamRange runs the Go loop")
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
