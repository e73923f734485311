package spotweb_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fmaMains are the fewest main packages whose dependencies, built for arm64,
// cover every package under internal/: the fused-multiply-add gate
// cross-builds them and reads their code.
var fmaMains = []string{"./bench", "./cmd/spotweb-sim", "./cmd/spotwebd"}

// fmaAllowlist counts, per function under internal/, the fused multiply-adds
// (FMADDD, FMSUBD, FNMADDD, FNMSUBD) the arm64 compiler emits today. amd64
// never fuses, so each site is a product whose rounding differs between the
// two, and every golden, digest and sweep artifact holds on amd64 only
// (ROADMAP item 16). Writing a product as float64(a*b) forbids the fusion. A
// function absent from the list may have no site; a count may only go down,
// and an entry above its function's count fails too, so the list only
// shrinks.
var fmaAllowlist = map[string]int{
	"chaos.(*Scenario).Validate":               1,
	"chaos.Compile":                            3,
	"chaos.appendCopulaVictims":                1,
	"chaos/runner.simWorkload":                 1,
	"cluster.(*Cluster).TotalCapacity":         1,
	"experiments.AblationLongRequests":         4,
	"experiments.Fig7b":                        2,
	"experiments.fedRun":                       1,
	"experiments.printHistogram":               1,
	"federation.(*Planner).Step":               1,
	"federation.(*Planner).marginalCost":       3,
	"federation.(*Planner).reweight":           2,
	"linalg.(*BlockTriDiagFactor).Solve":       2,
	"linalg.(*CSR).MulVec":                     1,
	"linalg.(*CSR).MulVecT":                    1,
	"linalg.(*CholeskyFactor).Solve":           2,
	"linalg.(*Matrix).AtA":                     1,
	"linalg.(*Matrix).MulVecT":                 1,
	"linalg.Cholesky":                          2,
	"linalg.FactorBlockTriDiag":                1,
	"linalg.Vector.Dot":                        1,
	"market.(*Catalog).priorMatrix":            1,
	"market.CatalogConfig.Generate":            12,
	"market.Fig5Catalog":                       1,
	"market.GoogleLikeCatalog":                 2,
	"portfolio.(*Planner).Step":                1,
	"portfolio.(*Planner).recordMetrics":       1,
	"portfolio.Config.buildLinear":             2,
	"portfolio.Config.solveADMM":               1,
	"portfolio.Config.solveFISTA":              1,
	"portfolio.MeanRevertSource.PerReqCosts":   1,
	"portfolio.NoisySource.PerReqCosts":        1,
	"portfolio.ServerCounts":                   2,
	"predict.(*AR).Predict":                    1,
	"predict.(*AR).fit":                        5,
	"predict.(*EWMA).Observe":                  1,
	"predict.(*HoltWinters).Observe":           3,
	"predict.(*HoltWinters).Predict":           1,
	"predict.(*NoisyOracle).Predict":           1,
	"predict.(*Padded).Predict":                2,
	"predict.(*SplinePredictor).Predict":       1,
	"predict.(*SplinePredictor).pointForecast": 1,
	"risk.(*Estimator).shapeLocked":            4,
	"risk.(*cusum).observe":                    2,
	"sim.(*Simulator).Run":                     29,
	"solver.(*Problem).Objective":              1,
	"solver.(*reducedKKT).step":                3,
	"solver.SolveADMM":                         5,
	"solver.factorBlockKKT":                    2,
	"stats.StdDev":                             1,
	"stats.betaCDF":                            2,
	"stats.betaCF":                             3,
	"stats.logBeta":                            1,
	"stats.warmBracket":                        1,
	"trace.BurstyConfig.Generate":              3,
	"trace.FailureConfig.Generate":             4,
	"trace.PriceConfig.Generate":               4,
	"trace.WorkloadConfig.Generate":            7,
}

// fusedOps are the arm64 scalar fused multiply-add opcodes as go tool objdump
// prints them.
var fusedOps = map[string]bool{"FMADDD": true, "FMSUBD": true, "FNMADDD": true, "FNMSUBD": true}

// TestNoNewFusedMultiplyAdd cross-builds fmaMains for linux/arm64, counts the
// fused multiply-adds in every function under internal/ with go tool
// objdump, and fails on a function whose count exceeds fmaAllowlist, naming
// each of its sites by source line, and on an entry above its function's
// count. It first checks that fmaMains cover every package under internal/
// and that none of them could be dropped. It skips only when the go command
// cannot be run.
func TestNoNewFusedMultiplyAdd(t *testing.T) {
	if err := exec.Command("go", "version").Run(); err != nil {
		t.Skipf("go command not runnable: %v", err)
	}
	env := append(os.Environ(), "GOOS=linux", "GOARCH=arm64", "CGO_ENABLED=0")
	goCmd := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command("go", args...)
		cmd.Env = env
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go %s: %v: %s", strings.Join(args, " "), err, stderr.String())
		}
		return out
	}
	internal := strings.Fields(string(goCmd("list", "-f", "{{if .GoFiles}}{{.ImportPath}}{{end}}", "./internal/...")))
	covers := map[string]map[string]bool{}
	for _, main := range fmaMains {
		covers[main] = map[string]bool{}
		for _, p := range strings.Fields(string(goCmd("list", "-deps", "-f", "{{.ImportPath}}", main))) {
			covers[main][p] = true
		}
	}
	for _, p := range internal {
		found := false
		for _, main := range fmaMains {
			found = found || covers[main][p]
		}
		if !found {
			t.Errorf("%s is in no dependency list of %v: add a main package that imports it", p, fmaMains)
		}
	}
	for _, main := range fmaMains {
		own := false
		for _, p := range internal {
			if !covers[main][p] {
				continue
			}
			others := false
			for _, other := range fmaMains {
				others = others || other != main && covers[other][p]
			}
			own = own || !others
		}
		if !own {
			t.Errorf("%s covers no package under internal/ the other mains do not: drop it from fmaMains", main)
		}
	}

	dir := t.TempDir()
	goCmd(append([]string{"build", "-o", dir + string(filepath.Separator)}, fmaMains...)...)
	sites := map[string][]string{} // function → "file:line OP", from the binary with the most
	for _, main := range fmaMains {
		bin := filepath.Join(dir, filepath.Base(main))
		found := map[string][]string{}
		var fn string
		sc := bufio.NewScanner(bytes.NewReader(goCmd("tool", "objdump", "-s", "^repro/", bin)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			switch {
			case len(f) >= 2 && f[0] == "TEXT":
				fn = strings.TrimPrefix(strings.TrimSuffix(f[1], "(SB)"), "repro/internal/")
			case len(f) >= 4 && fusedOps[f[3]]:
				found[fn] = append(found[fn], f[0]+" "+f[3])
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		for fn, s := range found {
			if len(s) > len(sites[fn]) {
				sites[fn] = s
			}
		}
	}

	var fns []string
	for fn := range sites {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	total := 0
	for _, fn := range fns {
		n, allowed := len(sites[fn]), fmaAllowlist[fn]
		total += n
		if n > allowed {
			t.Errorf("%s: %d fused multiply-adds, allowlist %d; write each product as float64(a*b): %s",
				fn, n, allowed, strings.Join(sites[fn], ", "))
		}
	}
	for fn, allowed := range fmaAllowlist {
		if n := len(sites[fn]); n < allowed {
			t.Errorf("allowlist entry %s = %d, but %d fused multiply-adds remain: lower it to %d", fn, allowed, n, n)
		}
	}
	t.Logf("%d fused multiply-adds in %d functions", total, len(fns))
}
