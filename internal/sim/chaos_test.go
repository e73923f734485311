package sim

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

// stormScenario compiles a single-storm scenario hitting the most-populated
// market at the given normalized time, with optional warning loss around it.
func stormScenario(t *testing.T, loseWarning bool) *chaos.Injector {
	t.Helper()
	sc := &chaos.Scenario{Name: "test-storm"}
	if loseWarning {
		sc.Faults = append(sc.Faults, chaos.FaultSpec{
			Kind: chaos.KindWarningLoss, Start: 0.45, Duration: 0.2,
		})
	}
	sc.Faults = append(sc.Faults, chaos.FaultSpec{
		Kind: chaos.KindStorm, Start: 0.5, Count: 1,
	})
	in, err := chaos.Compile(sc, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestChaosInjectionIsDeterministic(t *testing.T) {
	run := func() *Result {
		s := &Simulator{
			Cfg: Config{
				Seed: 1, TransiencyAware: true,
				Chaos: stormScenario(t, false),
			},
			Cat:      noFailCatalog(24),
			Workload: flatWorkload(24, 300),
			Policy:   &fixedPolicy{counts: []int{4, 0, 0}, name: "fixed"},
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.InjectedRevocations == 0 {
		t.Fatal("storm injected no revocations")
	}
	if a.Revocations != a.InjectedRevocations {
		t.Fatalf("no-fail catalog produced natural revocations: %d/%d",
			a.Revocations, a.InjectedRevocations)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed + scenario must produce identical results")
	}
}

// TestChaosHighUtilThresholdWired verifies the promoted HighUtil config knob
// reaches the revocation decision: the same storm that reprovisions at the
// paper's 0.85 threshold redistributes when the threshold is raised out of
// reach — unless it takes every server, when no threshold lets the
// survivors absorb the load.
func TestChaosHighUtilThresholdWired(t *testing.T) {
	run := func(highUtil float64, counts []int) *Result {
		s := &Simulator{
			Cfg: Config{
				Seed: 1, TransiencyAware: true, HighUtil: highUtil,
				Chaos: stormScenario(t, false),
			},
			Cat:      noFailCatalog(24),
			Workload: flatWorkload(24, 300),
			Policy:   &fixedPolicy{counts: counts, name: "fixed"},
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Losing the most-populated market (four m4.xlarge) leaves one
	// m4.2xlarge: post-revocation utilization 300/200 = 1.5, above the
	// default threshold, below an absurdly raised one.
	strict := run(0, []int{4, 1, 0}) // default 0.85
	if strict.Actions["redistribute"] != 0 || strict.Actions["reprovision"] == 0 {
		t.Fatalf("default threshold actions = %v, want reprovision only", strict.Actions)
	}
	lax := run(5, []int{4, 1, 0})
	if lax.Actions["redistribute"] == 0 || lax.Actions["reprovision"] != 0 {
		t.Fatalf("raised threshold actions = %v, want redistribute only", lax.Actions)
	}
	// Losing the only populated market leaves nothing to redistribute onto.
	empty := run(1.5, []int{4, 0, 0})
	if empty.Actions["redistribute"] != 0 || empty.Actions["reprovision"] == 0 {
		t.Fatalf("empty-fleet actions at threshold 1.5 = %v, want reprovision only", empty.Actions)
	}
}

// TestChaosJournalLifecycleUnderWarningLoss runs an injected storm inside a
// warning-loss window and checks the journal records the full revocation
// lifecycle in causal order: warnings → drain decision → replacement
// launches → terminations → admission control on, then off once replacement
// capacity warms up.
func TestChaosJournalLifecycleUnderWarningLoss(t *testing.T) {
	j := metrics.NewJournal(4096)
	s := &Simulator{
		Cfg: Config{
			Seed: 1, TransiencyAware: true,
			Chaos:   stormScenario(t, true),
			Journal: j,
		},
		Cat:      noFailCatalog(24),
		Workload: flatWorkload(24, 300),
		Policy:   &fixedPolicy{counts: []int{4, 0, 0}, name: "fixed"},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The lost warning means zero drain time: the decision must be admission
	// control, and the sim must pass through an overload regime.
	if res.Actions["admission_control"] == 0 {
		t.Fatalf("actions = %v, want admission_control under lost warning", res.Actions)
	}
	if res.OverloadSecs <= 0 || res.AdmissionEvents == 0 {
		t.Fatalf("overload = %gs / %d events, want > 0", res.OverloadSecs, res.AdmissionEvents)
	}

	seqOf := func(typ string) int64 {
		for _, ev := range j.Events() {
			if ev.Type == typ {
				return ev.Seq
			}
		}
		t.Fatalf("journal has no %s event (counts %v)", typ, j.Counts())
		return 0
	}
	warn := seqOf(metrics.EvWarning)
	drain := seqOf(metrics.EvDrainStart)
	repl := seqOf(metrics.EvReplacementStarted)
	term := seqOf(metrics.EvBackendTerminated)
	admOn := seqOf(metrics.EvAdmissionOn)
	admOff := seqOf(metrics.EvAdmissionOff)
	if !(warn < drain && drain < repl && repl < term && term < admOn && admOn < admOff) {
		t.Fatalf("lifecycle out of order: warn=%d drain=%d repl=%d term=%d admOn=%d admOff=%d",
			warn, drain, repl, term, admOn, admOff)
	}

	// Every warned backend must eventually be journaled as terminated, and
	// the warnings carry the injected marker.
	terminated := map[int]bool{}
	for _, ev := range j.Events() {
		if ev.Type == metrics.EvBackendTerminated {
			terminated[ev.Backend] = true
		}
	}
	warned := 0
	for _, ev := range j.Events() {
		if ev.Type != metrics.EvWarning {
			continue
		}
		warned++
		if ev.Detail != "injected" {
			t.Fatalf("warning detail = %q, want injected", ev.Detail)
		}
		if !terminated[ev.Backend] {
			t.Fatalf("warned backend %d never journaled as terminated", ev.Backend)
		}
	}
	if warned == 0 {
		t.Fatal("no warnings journaled")
	}
}
