package checkpoint

import _ "unsafe" // for go:linkname

// hostLE is internal/compress's host-endianness switch, under which every
// vector of a record is read and written. A test in this package cannot
// reach that package's unexported variable any other way; reaching it lets
// full and differential records run the big-endian vector path too.
//
//go:linkname hostLE lowdiff/internal/compress.hostLE
var hostLE bool

// eachVectorPath calls fn on this host's vector path and then on the
// big-endian one: hostLE cleared, so every word read is converted in place
// and every write goes through the staging buffer. On a little-endian host
// those conversions rewrite each word unchanged, so both paths must give
// the same records and the same state. The host's path is restored after.
func eachVectorPath(fn func(path string)) {
	defer func(le bool) { hostLE = le }(hostLE)
	for _, p := range []struct {
		name string
		le   bool
	}{{"host", hostLE}, {"big-endian", false}} {
		hostLE = p.le
		fn(p.name)
	}
}
