package runner

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/runcfg"
)

func TestRunSimDeterministic(t *testing.T) {
	sc, err := chaos.Builtin("storm")
	if err != nil {
		t.Fatal(err)
	}
	encode := func() []byte {
		rep, err := RunSim(sc, runcfg.RunConfig{Seed: 42, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed + scenario must encode byte-identically:\n%s\n---\n%s", a, b)
	}
}

// TestStormCoversAllThreeActions is the acceptance check for the built-in
// storm scenario: its staged storms (low load, high load, high load with a
// shortened warning) must walk the LB through every §6.1 revocation
// response.
func TestStormCoversAllThreeActions(t *testing.T) {
	sc, err := chaos.Builtin("storm")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSim(sc, runcfg.RunConfig{Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, action := range []string{"redistribute", "reprovision", "admission_control"} {
		if rep.Actions[action] == 0 {
			t.Errorf("storm scenario never produced %s (actions %v)", action, rep.Actions)
		}
	}
	if rep.InjectedRevocations == 0 {
		t.Fatal("no injected revocations")
	}
	// The journal must have recorded the drain decisions behind the actions.
	if rep.EventCounts[metrics.EvDrainStart] == 0 || rep.EventCounts[metrics.EvWarning] == 0 {
		t.Fatalf("journal lifecycle missing: %v", rep.EventCounts)
	}
}

// TestRunTestbedSmoke replays the storm scenario against the wall-clock
// testbed and checks the fault timeline reached the production code path:
// requests flowed and the journal saw revocation warnings.
func TestRunTestbedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock testbed run")
	}
	sc, err := chaos.Builtin("storm")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunTestbed(TestbedOptions{
		Scenario: sc, Seed: 42, Duration: 1500 * time.Millisecond, Rate: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Served == 0 {
		t.Fatal("no requests served")
	}
	if sum.Revocations == 0 {
		t.Fatal("no revocations delivered")
	}
	if sum.EventCounts[metrics.EvWarning] == 0 || sum.EventCounts[metrics.EvDrainStart] == 0 {
		t.Fatalf("journal lifecycle missing: %v", sum.EventCounts)
	}
	if sum.DropFraction > 0.5 {
		t.Fatalf("drop fraction %v implausibly high", sum.DropFraction)
	}
}
