package globals

// Tests may reset package state between cases; _test.go files are not
// simulation code and are never analyzed.
func resetForTest() {
	scaleIDs = 0
	tally++
	disableRecovery.Store(false)
}
