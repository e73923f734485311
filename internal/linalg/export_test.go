package linalg

import (
	"strings"
	"testing"
)

// laneBodies are the bodies the lane-kernel callers run, one per CPU class:
// "avx512" (lanes8x4 in one ZMM pass), "avx2" (lanes8x2, and lanes8x4 as two
// of its passes) and "scalar" (the callers' Go bodies, as on a CPU or GOARCH
// without the lanes).
var laneBodies = []string{"avx512", "avx2", "scalar"}

// hasLaneBody reports whether this CPU can run body.
func hasLaneBody(body string) bool {
	switch body {
	case "avx512":
		return cpuHasZMM()
	case "avx2":
		return cpuHasLanes()
	}
	return true
}

// forEachLaneBody is the test seam over the CPU check: it runs check once per
// body this CPU has, with the callers switched to that body, passing the
// body's name, and restores the CPU's choice afterwards.
func forEachLaneBody(t *testing.T, check func(body string)) {
	t.Helper()
	defer func(lanes, zmm bool) { useLanes, useZMM = lanes, zmm }(useLanes, useZMM)
	for _, body := range laneBodies {
		if hasLaneBody(body) {
			useLanes, useZMM = body != "scalar", body == "avx512"
			check(body)
		}
	}
}

// logLaneBodies logs which bodies forEachLaneBody runs on this CPU and which
// it skips, so a run on a CPU without AVX-512 says so.
func logLaneBodies(t *testing.T) {
	t.Helper()
	var ran, skipped []string
	for _, body := range laneBodies {
		if hasLaneBody(body) {
			ran = append(ran, body)
		} else {
			skipped = append(skipped, body)
		}
	}
	if len(skipped) == 0 {
		skipped = []string{"none"}
	}
	t.Logf("lane bodies run: %s; skipped, this CPU lacks them: %s",
		strings.Join(ran, ", "), strings.Join(skipped, ", "))
}
