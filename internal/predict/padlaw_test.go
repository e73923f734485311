package predict

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// padLawTol is the relative tolerance of the pad law's scaling clause: the
// forecasts are sums and products of the series' values, so scaling the
// series by c scales them by c up to rounding.
const padLawTol = 1e-9

// padTrace runs a Padded over ciProb and base beside a bare copy of base,
// fed c·series, and returns every padded forecast and its pad over the bare
// forecast from the warm-up on.
func padTrace(t *testing.T, name string, ciProb, c float64, series []float64) (out, pad [][]float64) {
	t.Helper()
	base, err := ByName(name, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := ByName(name, 1, 4)
	p := NewPadded(inner, ciProb, 4)
	for k, v := range series {
		p.Observe(c * v)
		base.Observe(c * v)
		if k < 48 {
			continue
		}
		o, raw := p.Predict(4), base.Predict(4)
		d := make([]float64, len(o))
		for i := range o {
			d[i] = o[i] - raw[i]
		}
		out, pad = append(out, o), append(pad, d)
	}
	return out, pad
}

// TestLawPredictorPad: Padded's CI pad over its base forecast is never
// negative; a higher confidence level never forecasts lower (0.9 against
// 0.99); and scaling the observed series by c ∈ {0.5, 3} scales every
// forecast and every pad by c, within padLawTol, for each predictor
// predict.ByName builds.
func TestLawPredictorPad(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	series := make([]float64, 24*12)
	for k := range series {
		series[k] = 200 + 80*math.Sin(2*math.Pi*float64(k)/24) + 25*rng.NormFloat64()
		if k%37 == 0 {
			series[k] *= 1.8 // a burst the pad has to cover
		}
	}
	for _, name := range []string{"spline-nopad", "reactive", "ewma", "seasonal", "ma", "holtwinters", "ar"} {
		out99, pad99 := padTrace(t, name, 0.99, 1, series)
		out90, _ := padTrace(t, name, 0.90, 1, series)
		padded, higher := 0, 0
		for k := range out99 {
			for i := range out99[k] {
				at := fmt.Sprintf("%s forecast %d step %d", name, k, i+1)
				if pad99[k][i] < 0 {
					t.Fatalf("%s: pad %v < 0", at, pad99[k][i])
				}
				if out90[k][i] > out99[k][i] {
					t.Fatalf("%s: CIProb 0.90 forecasts %v above 0.99's %v", at, out90[k][i], out99[k][i])
				}
				if pad99[k][i] > 0 {
					padded++
				}
				if out90[k][i] < out99[k][i] {
					higher++
				}
			}
		}
		if padded == 0 || higher == 0 {
			t.Fatalf("%s: %d forecasts padded, %d higher at 0.99 than at 0.90: the law tested nothing", name, padded, higher)
		}
		for _, c := range []float64{0.5, 3} {
			outC, padC := padTrace(t, name, 0.99, c, series)
			for k := range out99 {
				for i := range out99[k] {
					at := fmt.Sprintf("%s ×%v forecast %d step %d", name, c, k, i+1)
					scale := c * math.Max(math.Abs(out99[k][i]), 1)
					if d := math.Abs(outC[k][i] - c*out99[k][i]); d > padLawTol*scale {
						t.Fatalf("%s: forecast %v, want %v·%v (off by %.3g relative)", at, outC[k][i], c, out99[k][i], d/scale)
					}
					if d := math.Abs(padC[k][i] - c*pad99[k][i]); d > padLawTol*scale {
						t.Fatalf("%s: pad %v, want %v·%v (off by %.3g relative)", at, padC[k][i], c, pad99[k][i], d/scale)
					}
				}
			}
		}
	}
}
