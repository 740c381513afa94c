package corpus

// The loader never reads _test.go files, so this map range in a
// restricted package produces no finding.
func rangeInTest(r Registry) int {
	n := 0
	for range r {
		n++
	}
	return n
}
