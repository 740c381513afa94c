package corpus

// RangeWaived is suppressed by a well-formed fsvet directive on the
// line above the finding.
func RangeWaived(r Registry) int {
	n := 0
	//fsvet:ignore determinism corpus: order-insensitive count
	for range r {
		n++
	}
	return n
}

// RangeFixed once needed a waiver; the loop below it is gone, so the
// directive suppresses nothing and is itself a finding.
func RangeFixed(xs []int) int {
	n := len(xs)
	//fsvet:ignore determinism corpus: left behind after the loop was fixed // want "stale //fsvet:ignore determinism directive"
	return n
}

//fsvet:ignore nosuchpass testing // want "unknown pass \"nosuchpass\""

// The next directive names a real pass but gives no reason; the test
// body asserts the "needs a reason" finding directly (a want comment
// here would become part of the directive itself).
//fsvet:ignore units

// The next directive names neither a pass nor a reason; the test body
// asserts its finding directly, as above.
//fsvet:ignore
