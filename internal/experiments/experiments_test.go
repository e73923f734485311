package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/stats"
)

var quick = Options{Quick: true, Seed: 42}

func TestTable1(t *testing.T) {
	var sb strings.Builder
	Table1(&sb)
	out := sb.String()
	for _, want := range []string{"ExoSphere", "Tributary", "Qu et al.", "SpotWeb",
		"SLO-awareness", "Exploit Future Forecast"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Traces(t *testing.T) {
	var sb strings.Builder
	wiki, vod, sums := Fig3Traces(&sb, quick)
	if wiki.Len() == 0 || vod.Len() == 0 || len(sums) != 2 {
		t.Fatal("trace generation broken")
	}
	// Wikipedia-like: strong diurnal pattern, few spikes.
	if sums[0].DiurnalPeakTroughRatio < 1.5 {
		t.Fatalf("wiki diurnal ratio %v too weak", sums[0].DiurnalPeakTroughRatio)
	}
	// VoD: spikier (higher peak-to-mean).
	if sums[1].PeakToMean <= sums[0].PeakToMean {
		t.Fatalf("vod peak/mean %v should exceed wiki %v", sums[1].PeakToMean, sums[0].PeakToMean)
	}
}

func TestFig4cdPaddingShape(t *testing.T) {
	res := Fig4cd(io.Discard, quick)
	// §6.2: the padded predictor shifts errors positive — almost never
	// under-provisions, and by far less than the baseline when it does.
	if res.SpotWeb.UnderFraction > 0.05 {
		t.Fatalf("spotweb under-provision fraction %v, want ≈0", res.SpotWeb.UnderFraction)
	}
	if res.Baseline.UnderFraction < 0.2 {
		t.Fatalf("baseline should under-provision often, got %v", res.Baseline.UnderFraction)
	}
	if res.SpotWeb.MaxUnder >= res.Baseline.MaxUnder {
		t.Fatalf("spotweb max under %v should beat baseline %v",
			res.SpotWeb.MaxUnder, res.Baseline.MaxUnder)
	}
	// Paper: ≈15% mean over-provisioning, ≈40% max. Enforce the band loosely.
	if res.SpotWeb.MeanOver < 0.05 || res.SpotWeb.MeanOver > 0.40 {
		t.Fatalf("spotweb mean over-provision %v outside [5%%, 40%%]", res.SpotWeb.MeanOver)
	}
	if res.SpotWeb.MaxOver > 1.0 {
		t.Fatalf("spotweb max over-provision %v implausible", res.SpotWeb.MaxOver)
	}
	// The normal fit of the padded distribution must center positive.
	if res.SpotWebFit.Mu <= res.BaselineFit.Mu {
		t.Fatal("padded error distribution should center above baseline")
	}
	for _, h := range []*stats.Histogram{res.BaselineHist, res.SpotWebHist} {
		n := h.Under + h.Over
		for _, c := range h.Counts {
			n += c
		}
		if n == 0 {
			t.Fatal("histograms empty")
		}
	}
}

func TestFig5PriceAwareness(t *testing.T) {
	res := Fig5(io.Discard, quick)
	if res.CheapestSwitches == 0 {
		t.Fatal("cheapest market never switches; Fig 5(a) premise broken")
	}
	used := map[int]bool{}
	for _, counts := range res.MPOCounts {
		for i, c := range counts {
			if c > 0 {
				used[i] = true
			}
		}
	}
	if len(used) < 2 {
		t.Fatalf("MPO used %d markets; should shift allocation across markets", len(used))
	}
	if res.MPOCost >= res.ConstCost {
		t.Fatalf("MPO cost %v should beat constant portfolio %v", res.MPOCost, res.ConstCost)
	}
	if len(res.ConstCounts) == 0 || len(res.MPOCounts) == 0 {
		t.Fatal("allocation series empty")
	}
}

func TestFig6aSavings(t *testing.T) {
	res := Fig6a(io.Discard, quick)
	for _, h := range []int{2, 4} {
		if res.SavingsPct[h] < 10 {
			t.Fatalf("H=%d savings %v%%, want substantial (paper ≈37%%)", h, res.SavingsPct[h])
		}
		if res.SavingsPct[h] > 80 {
			t.Fatalf("H=%d savings %v%% implausibly high", h, res.SavingsPct[h])
		}
	}
}

func TestFig6bSavingsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := Fig6b(io.Discard, quick, "wiki")
	// The quick grid: 6 and 12 markets × H = 2, 4.
	if len(res.SavingsPct) != 2 || len(res.ExoCost) != 2 {
		t.Fatal("result shape broken")
	}
	for i, row := range res.SavingsPct {
		for j, s := range row {
			if s < 5 {
				t.Fatalf("market count %d, horizon %d: savings %v%%, want clearly positive", i, j, s)
			}
			if s > 90 {
				t.Fatalf("savings %v%% implausible", s)
			}
		}
	}
	// More markets ⇒ more savings (paper's consistent observation), with a
	// small tolerance for noise.
	first, last := res.SavingsPct[0][0], res.SavingsPct[len(res.SavingsPct)-1][0]
	if last < first-5 {
		t.Fatalf("savings should grow with market count: %v%% → %v%%", first, last)
	}
}

func TestFig7aAccuracySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := Fig7a(io.Discard, quick)
	if res.SavingsPct[0] < 10 {
		t.Fatalf("perfect-forecast savings %v%% too low", res.SavingsPct[0])
	}
	// Savings decay with error but the worst point stays well above the
	// catastrophic regime (paper: "still some significant savings").
	last := res.SavingsPct[len(res.SavingsPct)-1]
	if last > res.SavingsPct[0] {
		t.Fatalf("savings should not grow with error: %v", res.SavingsPct)
	}
	if last < -10 {
		t.Fatalf("reactive-grade-error savings %v%% collapsed", last)
	}
}

func TestFig7bScalability(t *testing.T) {
	res := Fig7b(io.Discard, quick)
	// The quick grid: 9, 36 and 144 markets × H = 2, 6.
	if len(res.Times) != 3 {
		t.Fatal("shape broken")
	}
	for i, row := range res.Times {
		for j, f := range row {
			// Paper bound: sub-second to 5 s even at hundreds of markets.
			if f.Median > 5000 {
				t.Fatalf("market count %d, horizon %d: median %v ms exceeds 5 s", i, j, f.Median)
			}
		}
	}
	// Growth must be far below the dense-cubic worst case: 16× the markets
	// should cost well under 16²× the time.
	const ratioMarkets = 144.0 / 9
	ratioTime := res.Times[len(res.Times)-1][0].Median / res.Times[0][0].Median
	if ratioTime > ratioMarkets*ratioMarkets {
		t.Fatalf("scaling too steep: %v× markets → %v× time", ratioMarkets, ratioTime)
	}
}

func TestSavingsHelper(t *testing.T) {
	if Savings(50, 100) != 0.5 {
		t.Fatal("Savings broken")
	}
	if Savings(50, 0) != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

// TestFig4aSim holds the §6.1 experiment to the paper's shape, and to
// EXPERIMENTS.md's claim that its output is a function of the seed alone.
func TestFig4aSim(t *testing.T) {
	var out, again bytes.Buffer
	res := Fig4a(&out, quick)
	if res.AwareDrops > 0.005 {
		t.Fatalf("aware drops %v, want ≈0", res.AwareDrops)
	}
	// Paper: vanilla drops ~85% right after the revoked servers terminate.
	if res.VanillaPostDrops < 0.5 {
		t.Fatalf("vanilla post-termination drops %v, want large", res.VanillaPostDrops)
	}
	if res.AwareDrops >= res.VanillaDrops {
		t.Fatalf("aware drops %v, vanilla %v: aware should beat vanilla", res.AwareDrops, res.VanillaDrops)
	}
	// Paper: SpotWeb keeps p99 under 1 s end-to-end.
	if res.AwareP99 > 1.0 {
		t.Fatalf("aware p99 %v s exceeds the paper's 1 s", res.AwareP99)
	}
	// One row per half minute of the 8-minute run, each with both variants.
	if rows := strings.Count(out.String(), "(n="); rows != 2*16 {
		t.Fatalf("%d latency bins, want 16 per variant:\n%s", rows, out.Bytes())
	}
	Fig4a(&again, quick)
	if !bytes.Equal(out.Bytes(), again.Bytes()) {
		t.Fatalf("two runs at seed %d differ:\n%s\n---\n%s", quick.Seed, out.Bytes(), again.Bytes())
	}
}
