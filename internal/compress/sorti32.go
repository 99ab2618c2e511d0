package compress

// Closure-free replacements for the sort package calls on the compression
// hot path. sort.Slice costs an interface conversion (the slice header
// escapes to the heap) plus a closure allocation per call, and sort.Search
// a closure per call — measurable when RandK and the merge run every
// training iteration. Sorting plain int32 values is order-deterministic (equal
// elements are indistinguishable), so swapping the algorithm cannot change
// any result bit.

// sortI32 sorts v ascending in place. Median-of-three quicksort recursing
// on the smaller side, insertion sort below a small cutoff.
func sortI32(v []int32) {
	for len(v) > 12 {
		// Median-of-three pivot: order first/middle/last, pivot in the
		// middle.
		m := len(v) / 2
		hi := len(v) - 1
		if v[m] < v[0] {
			v[m], v[0] = v[0], v[m]
		}
		if v[hi] < v[0] {
			v[hi], v[0] = v[0], v[hi]
		}
		if v[hi] < v[m] {
			v[hi], v[m] = v[m], v[hi]
		}
		pivot := v[m]
		// Hoare partition.
		i, j := 0, hi
		for {
			for v[i] < pivot {
				i++
			}
			for v[j] > pivot {
				j--
			}
			if i >= j {
				break
			}
			v[i], v[j] = v[j], v[i]
			i++
			j--
		}
		// Recurse into the smaller half, loop on the larger.
		if j+1 < len(v)-(j+1) {
			sortI32(v[:j+1])
			v = v[j+1:]
		} else {
			sortI32(v[j+1:])
			v = v[:j+1]
		}
	}
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// searchI32GE returns the smallest i with ix[i] >= lo — the closure-free
// equivalent of sort.Search over a sorted []int32.
func searchI32GE(ix []int32, lo int32) int {
	i, j := 0, len(ix)
	for i < j {
		h := int(uint(i+j) >> 1)
		if ix[h] < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}
