//go:build !race

package portfolio

// raceEnabled lets the two largest ADMM test problems (the 50×12 cell of
// TestADMMAndFISTAAgreeOnMPO, the n=1000 build of
// TestKKTSparseBuildAvoidsDenseAllocation) run only in non-race builds, where
// they are fast.
const raceEnabled = false
