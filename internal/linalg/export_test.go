package linalg

import "testing"

// setLanes is the test seam over the lane kernel's CPU check: setLanes(false)
// makes both lane-kernel callers run their scalar bodies, as on a CPU without AVX2;
// setLanes(true) restores the lanes where the CPU has them. It returns the
// previous setting.
func setLanes(on bool) (was bool) {
	was, useLanes = useLanes, on && cpuHasLanes()
	return was
}

// forEachLaneBody runs check once per body this CPU has — the lanes (where
// the CPU has them) and the scalar body every other CPU runs — passing the
// body's name, and restores the CPU's choice afterwards.
func forEachLaneBody(t *testing.T, check func(body string)) {
	t.Helper()
	defer setLanes(setLanes(true))
	if useLanes {
		check("lanes")
	}
	setLanes(false)
	check("scalar")
}
