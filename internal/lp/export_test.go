package lp

// SetMaxIter lowers the per-phase pivot limit so a test can force
// IterationLimit; the returned func restores the previous limit.
func SetMaxIter(n int) (restore func()) {
	old := maxIter
	maxIter = n
	return func() { maxIter = old }
}
