// Package suppress is a lint fixture for //lint:allow directives: trailing
// and leading placement, multi-rule directives, the malformed shapes that
// are themselves reported and suppress nothing, and stale directives that
// suppress nothing and are reported too.
package suppress

import "io"

// TrailingAllow suppresses on the offending line (no finding).
func TrailingAllow(a, b float64) bool {
	return a == b //lint:allow floateq fixture: exact comparison is the point here
}

// LeadingAllow suppresses from the line above (no finding).
func LeadingAllow(w io.WriteCloser) {
	//lint:allow checkederr fixture: error intentionally dropped
	w.Close()
}

// WrongRule names a rule that did not fire here, so the floateq finding
// survives and the directive is stale (two findings).
func WrongRule(a, b float64) bool {
	return a != b //lint:allow checkederr fixture: names the wrong rule
}

// MissingReason is malformed — reported as lintdirective — and suppresses
// nothing, so the floateq finding survives too (two findings).
func MissingReason(a, b float64) bool {
	return a == b //lint:allow floateq
}

// UnknownRule is malformed — reported as lintdirective — and suppresses
// nothing (two findings).
func UnknownRule(a, b float64) bool {
	return a == b //lint:allow nosuchrule fixture: rule does not exist
}

// MultiRule suppresses two rules with one directive; the directive covers
// its own line and the next (no findings).
func MultiRule(w io.WriteCloser, a, b float64) bool {
	defer w.Close() //lint:allow checkederr,floateq fixture: both rules waived for this pair of lines
	return a == b
}

// MultiLineStatement suppresses a finding on a continuation line: the
// directive covers the full line span of the statement that starts
// directly under it (no finding).
func MultiLineStatement(a, b float64) []bool {
	//lint:allow floateq fixture: continuation lines of the statement below are covered
	return []bool{
		a == b,
	}
}

// MultiLineFuncLit does NOT extend into a statement containing a function
// literal — the body is a different scope and would make the directive a
// blanket waiver — so the finding inside survives and the directive is
// stale (two findings).
func MultiLineFuncLit(a, b float64) func() bool {
	//lint:allow floateq fixture: must not leak into the literal body
	cmp := func() bool {
		return a == b
	}
	return cmp
}

// StaleAllow waives a rule on a line where it finds nothing: integers
// compare exactly. The directive outlived its finding and is reported
// (one finding).
func StaleAllow(a, b int) bool {
	return a == b //lint:allow floateq fixture: nothing here for floateq to find
}
